package adi

import (
	"testing"
	"unsafe"
)

// TestConnSize pins the size of a connection half. A wired pair is one
// [2]Conn record (DESIGN.md §21): at 232 bytes a half, the record takes the
// 480-byte size class, where the four channels side by side took 312 bytes
// a half and the 640-byte class. A pair that uses neither the eager ring
// nor the reliability layer pays one nil pointer for each. A change of size
// updates this test, the comment on Conn's fields and DESIGN §21 together.
func TestConnSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Conn{}); got != 232 {
		t.Errorf("unsafe.Sizeof(Conn{}) = %d, want 232", got)
	}
}

// TestRequestSize pins the size of a request. Requests come from the world's
// sim.Slab in blocks (DESIGN.md §8.6): at 160 bytes a full block of 63 and
// the allocator's header fill the 10 240-byte size class, where the
// 200-byte layout with its own Status took 208 bytes a request. The status
// is derived (Request.Status), the class is one byte and the flags share
// its word. A change of size updates this test, the comment on Request's
// fields and DESIGN §8.6 together.
func TestRequestSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Request{}); got != 160 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want 160", got)
	}
}

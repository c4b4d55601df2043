package ib

import (
	"testing"
	"unsafe"
)

// TestQPSize pins the size of a QP, which holds its transmit flow by value.
// adi builds a pair's QPs in blocks (DESIGN.md §19): at 152 bytes a rail's
// two QPs take the 320-byte size class and a 4-rail pair's eight QPs plus
// Go's 8-byte malloc header 1 224 bytes, inside the 1 280-byte class. At
// 160 bytes that block moves to the 1 408-byte class. A change of size
// updates this test, the comment on QP and DESIGN §19 together.
func TestQPSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(QP{}); got != 152 {
		t.Errorf("unsafe.Sizeof(QP{}) = %d, want 152", got)
	}
}

package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins the size of an event node: its (at, seq) key and the
// three fire actions, a closure, a PostCall function with its arguments and
// a proc to ready (DESIGN.md §8.4). Every node comes from the engine's Slab
// and goes back to it as it fires; the 96-byte node of the cancellable
// timers also carried an owner pointer and three state flags. A change of
// size updates this test, the comment on event and DESIGN §8.4 together.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 80 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 80", got)
	}
}

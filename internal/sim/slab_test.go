package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

type slabItem struct {
	id  int
	ref *int
}

// TestSlabBlockGrowth carves elements without releasing any: the blocks hold
// 4, 8, 16, 32 and then 64 elements, less the one a full block of more than
// 512 bytes leaves to the allocator's header; each block is one allocation,
// and its elements are handed out in address order.
func TestSlabBlockGrowth(t *testing.T) {
	var s Slab[slabItem] // 16 bytes: only the 64-element blocks give one up
	for b, n := range []int{4, 8, 16, 32, 63, 63, 63} {
		allocs := mallocs(func() {
			prev := s.Get()
			for i := 1; i < n; i++ {
				x := s.Get()
				if d := uintptr(unsafe.Pointer(x)) - uintptr(unsafe.Pointer(prev)); d != unsafe.Sizeof(*x) {
					t.Fatalf("block %d: element %d is %d bytes after the one before", b, i, d)
				}
				prev = x
			}
		})
		if len(s.rest) != 0 {
			t.Fatalf("block %d: %d elements left after %d gets", b, len(s.rest), n)
		}
		if allocs != 1 {
			t.Errorf("block %d of %d elements: %v allocations, want 1", b, n, allocs)
		}
	}
}

// TestSlabBlockFillsSizeClass checks the bytes a full block of 160-byte
// elements that hold pointers (the size of adi.Request) costs: 63 of them
// and the allocator's header fit the 10 240-byte size class that 64 would
// fill without a header.
func TestSlabBlockFillsSizeClass(t *testing.T) {
	type elem [20]*int
	var s Slab[elem]
	for s.size < slabMax/2 || len(s.rest) > 0 {
		s.Get()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Get()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 10240 {
		t.Errorf("block of %d 160-byte elements took %d bytes, want 10240", len(s.rest)+1, got)
	}
}

// mallocs counts the heap allocations of one call of f (testing.AllocsPerRun
// would call it twice). The collector stays off meanwhile: a cycle empties
// every sync.Pool, and the next user elsewhere in the process allocates
// afresh.
func mallocs(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSlabReusesReleased checks that a released element is handed out again,
// last released first, before the newest block yields another element or a
// new block is carved.
func TestSlabReusesReleased(t *testing.T) {
	var s Slab[slabItem]
	a, b := s.Get(), s.Get()
	s.Put(a)
	s.Put(b)
	if n := s.Free(); n != 2 {
		t.Fatalf("Free() = %d after two puts, want 2", n)
	}
	if got := s.Get(); got != b {
		t.Fatalf("first get after two puts: %p, want the last released %p", got, b)
	}
	if got := s.Get(); got != a {
		t.Fatalf("second get after two puts: %p, want %p", got, a)
	}
	// Spend the first block, release one element, and get again: the
	// released element comes back and no second block is carved.
	c, d := s.Get(), s.Get()
	s.Put(c)
	if got := s.Get(); got != c || s.size != slabFirst {
		t.Fatalf("get with a spent block and one released: %p (block size %d), want %p from the first block", got, s.size, c)
	}
	if got := s.Get(); got == a || got == b || got == c || got == d || s.size != 2*slabFirst {
		t.Fatalf("get with nothing released returned a held element or carved a block of %d", s.size)
	}
}

// TestSlabFreshElementsZero checks that elements carved from a new block are
// zero, and that Put leaves an element as its releaser left it.
func TestSlabFreshElementsZero(t *testing.T) {
	var s Slab[slabItem]
	v := 7
	for i := 0; i < 100; i++ {
		x := s.Get()
		if *x != (slabItem{}) {
			t.Fatalf("carved element %d is %+v, want zero", i, *x)
		}
		x.id, x.ref = i, &v
	}
	x := s.Get()
	x.id = 42
	s.Put(x)
	if got := s.Get(); got != x || got.id != 42 {
		t.Fatalf("released element came back as %+v", *got)
	}
}

// TestSlabWarmNoAlloc checks that a get/put cycle on a slab that has grown
// to its working set allocates nothing.
func TestSlabWarmNoAlloc(t *testing.T) {
	var s Slab[slabItem]
	const depth = 100
	held := make([]*slabItem, depth)
	cycle := func() {
		for i := range held {
			held[i] = s.Get()
		}
		for _, x := range held {
			*x = slabItem{}
			s.Put(x)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm cycle of %d gets and puts: %v allocations, want 0", depth, n)
	}
}

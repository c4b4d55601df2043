package sim

import "unsafe"

// Slab is the allocator behind the message path's object pools (requests,
// envelopes, in-flight records, WR ops, pipeline states, event nodes). A
// pool that made one object per miss paid one heap allocation for every
// object a caller kept instead of releasing; MPICH's ADI hands its request
// objects out of preallocated blocks for the same reason. A Slab reuses a
// released element first and otherwise carves the next element of a block
// of T. Blocks grow geometrically, slabFirst elements doubling up to
// slabMax, so a pool that only ever holds one object costs one small block
// while a pool whose objects are kept costs one allocation per slabMax of
// them. A block of slabMax elements that comes to more than mallocHeaderMin
// bytes holds one element less: the Go allocator prefixes such an object
// with an 8-byte header when it holds pointers, and the full block plus
// header would spill into the next size class (64 requests of 160 bytes are
// 10 240 bytes, a size class of their own; with the header they took
// 10 880). The small first blocks keep their length: each is carved once per
// pool, and one element less would make a pool that needs exactly that many
// carve a second block.
//
// An element keeps its whole block reachable while anything references it,
// so a live or released element pins at most slabMax elements. The zero
// value is an empty slab.
type Slab[T any] struct {
	free []*T // released elements, reused last-in first-out
	rest []T  // the newest block's elements not yet handed out
	size int  // nominal length of the newest block (0 before the first)
}

// Block growth bounds, in elements, and the object size above which the
// allocator adds its header.
const (
	slabFirst       = 4
	slabMax         = 64
	mallocHeaderMin = 512
)

// Get returns the most recently released element, as its releaser left it,
// or else a zero element of the newest block, carving a new block once that
// one is spent.
func (s *Slab[T]) Get() *T {
	if n := len(s.free); n > 0 {
		x := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return x
	}
	if len(s.rest) == 0 {
		s.size = min(max(2*s.size, slabFirst), slabMax)
		var zero T
		n := s.size
		if n == slabMax && uintptr(n)*unsafe.Sizeof(zero) > mallocHeaderMin {
			n--
		}
		s.rest = make([]T, n)
	}
	x := &s.rest[0]
	s.rest = s.rest[1:]
	return x
}

// Free reports how many released elements wait for reuse.
func (s *Slab[T]) Free() int { return len(s.free) }

// Put makes x the next element Get returns. Put does not clear x: the
// caller resets what must not reach the next user, its references above
// all, so a released element pins nothing but its block.
func (s *Slab[T]) Put(x *T) { s.free = append(s.free, x) }

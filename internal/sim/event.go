package sim

// Event machinery for the hot path: a monotone radix queue over pooled event
// nodes.
//
// Events fire in the total order (at, seq): fire time, then post ordinal.
// The queue exploits what a discrete-event simulation guarantees: no event
// is posted before the clock, so keys only ever arrive at or after the key
// last popped. A radix queue sorts them lazily by how far they lie from it:
//
//   - last is the key of the most recent pop. Bucket i > 0 holds the events
//     whose at differs from last first in bit i-1 (bits.Len64(at ^ last) ==
//     i), as a plain slice in arrival order; a 64-bit mask marks the
//     non-empty ones. Every key of a lower bucket is smaller than every key
//     of a higher one, so the minimum lies in bucket 0 or the lowest
//     non-empty bucket. Keys are never negative, so at ^ last has at most
//     63 bits and 64 buckets cover them.
//   - Bucket 0 holds the events at exactly last, as a small binary heap
//     ordered by seq. Equal fire times always share a bucket and end up
//     here together, so ties fire in post order, reserved ordinals posted
//     late (PostCallSeq) included.
//   - Push is O(1): one append. Pop takes bucket 0's root; with bucket 0
//     empty it takes the lowest non-empty bucket. A lone event there is the
//     minimum and pops directly (the common case on a shallow queue).
//     Otherwise pop scans that bucket for its smallest (at, seq), pops it,
//     makes its at the new last and redistributes the rest of the bucket
//     into lower ones. Buckets above it keep their index under the new
//     last, so each event moves down at most 63 times however deep the
//     queue.
//
// No event is ever withdrawn, and none is handed to the caller: every node
// comes from a per-engine Slab (slab.go) and goes back to it as it fires, so
// steady-state scheduling allocates nothing.
//
// DESIGN.md §8.4 has the measurements and the variants that lost to it.

import "math/bits"

// event is one pending event: its (at, seq) key and what firing it does,
// 80 bytes (TestEventSize). Exactly one of the three fire actions is set: a
// plain closure, a closure-free call (afn applied to the stashed args), or a
// proc to ready (the Sleep/Yield fast path). Folding the closure and the
// proc into afn trampolines makes a 64-byte node, but one that measured
// about 12 % more host time on the blocking ping-pong (DESIGN.md §8.4).
type event struct {
	at  Time
	seq uint64

	fn         func()
	afn        func(a any, i0, i1, i2 int64)
	a          any
	i0, i1, i2 int64
	proc       *Proc
}

// ---- the monotone radix queue ----

// queue holds the pending events in (at, seq) order (see the file comment).
type queue struct {
	last Time         // key of the most recent pop; no pending key is before it
	mask uint64       // bit i set iff b[i] is non-empty
	n    int          // pending events
	b    [64][]*event // b[0]: at == last, a heap by seq; b[i]: bits.Len64(at^last) == i
}

// put appends ev, whose key must not be before last, to its bucket and
// returns the bucket's index. A caller that gets 0 sifts ev up bucket 0's
// heap; leaving that to the caller keeps put small enough to inline.
func (q *queue) put(ev *event) int {
	i := bits.Len64(uint64(ev.at ^ q.last))
	q.b[i] = append(q.b[i], ev)
	q.mask |= 1 << i
	return i
}

// pop removes and returns the first event in (at, seq) order. The queue
// must not be empty.
func (q *queue) pop() *event {
	if q.mask&1 != 0 {
		return q.popZero()
	}
	// Bucket 0 is empty, so the first event is the lowest non-empty bucket's
	// smallest (at, seq). Its at becomes last, and the bucket's other events
	// move to lower buckets under it.
	i := bits.TrailingZeros64(q.mask)
	b := q.b[i]
	q.b[i] = b[:0]
	q.mask &^= 1 << i
	ev := b[0]
	for _, x := range b[1:] {
		if x.at < ev.at || x.at == ev.at && x.seq < ev.seq {
			ev = x
		}
	}
	q.last = ev.at
	if len(b) == 1 {
		b[0] = nil // a lone event: nothing moves
	} else {
		for j, x := range b {
			b[j] = nil
			if x != ev && q.put(x) == 0 {
				seqUp(q.b[0], len(q.b[0])-1)
			}
		}
	}
	q.n--
	return ev
}

// popZero pops the root of bucket 0's heap.
func (q *queue) popZero() *event {
	z := q.b[0]
	ev := z[0]
	k := len(z) - 1
	z[0] = z[k]
	z[k] = nil
	z = z[:k]
	q.b[0] = z
	if k == 0 {
		q.mask &^= 1
	} else {
		seqDown(z)
	}
	q.n--
	return ev
}

// before reports whether t is strictly before every pending key. t must not
// be before last; a tie is not before. A non-empty bucket 0 holds last, and
// last <= t.
func (q *queue) before(t Time) bool {
	return q.mask == 0 || q.mask&1 == 0 && t < q.lowest()
}

// lowest is the smallest fire time in the lowest non-empty bucket: its lone
// entry's, or found by a scan.
func (q *queue) lowest() Time {
	b := q.b[bits.TrailingZeros64(q.mask)]
	m := b[0].at
	for _, ev := range b[1:] {
		m = min(m, ev.at)
	}
	return m
}

// seqUp restores bucket 0's heap order after h[j] was added.
func seqUp(h []*event, j int) {
	ev := h[j]
	for j > 0 {
		p := (j - 1) >> 1
		if h[p].seq <= ev.seq {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = ev
}

// seqDown restores bucket 0's heap order after its root was replaced.
func seqDown(h []*event) {
	n := len(h)
	ev := h[0]
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].seq < h[c].seq {
			c++
		}
		if ev.seq <= h[c].seq {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = ev
}

// push stamps ev with its fire time and the next post ordinal — the
// (at, seq) key — and queues it.
func (e *Engine) push(ev *event, t Time) {
	e.seq++
	e.pushSeq(ev, t, e.seq-1)
}

// pushSeq queues ev under an explicit (at, seq) key and tracks the queue's
// high-water mark.
func (e *Engine) pushSeq(ev *event, t Time, seq uint64) {
	ev.at, ev.seq = t, seq
	e.q.n++
	if e.q.put(ev) == 0 {
		seqUp(e.q.b[0], len(e.q.b[0])-1)
	}
	if e.q.n > e.highWater {
		e.highWater = e.q.n
	}
}

// ---- scheduling ----

// recycle returns a fired node to the free list. Only the reference fields
// are cleared: the fire-action triple must be empty for correct dispatch on
// reuse (and for GC), while the scalars are overwritten by whichever
// schedule call next claims the node.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.afn, ev.a, ev.proc = nil, nil, nil, nil
	e.events.Put(ev)
}

// Post schedules fn to run when the virtual clock reaches t. Scheduling in
// the past (t < Now) is a programming error and panics. Handlers run inline
// in the event loop, whoever is driving it (see Engine), and must not block
// or park. The event node is pooled, so steady-state use allocates only
// fn's own closure (if any).
func (e *Engine) Post(t Time, fn func()) {
	if t < e.now {
		panic("sim: Post called with a time in the past")
	}
	ev := e.events.Get()
	ev.fn = fn
	e.push(ev, t)
}

// PostAfter schedules fn to run d ticks from now; a negative d is now.
func (e *Engine) PostAfter(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Post(e.now+d, fn)
}

// PostCall schedules fn(a, i0, i1, i2) at t with no closure: the arguments
// ride in the pooled event node, so hot paths that would otherwise allocate
// a capturing closure per event allocate nothing.
func (e *Engine) PostCall(t Time, fn func(a any, i0, i1, i2 int64), a any, i0, i1, i2 int64) {
	if t < e.now {
		panic("sim: PostCall called with a time in the past")
	}
	ev := e.events.Get()
	ev.afn, ev.a, ev.i0, ev.i1, ev.i2 = fn, a, i0, i1, i2
	e.push(ev, t)
}

// ReserveSeq sets aside n consecutive post ordinals and returns the first.
// Each may later be handed to PostCallSeq, so an event can be posted after
// the fact under the key an immediate PostCall would have given it.
func (e *Engine) ReserveSeq(n int) uint64 {
	seq := e.seq
	e.seq += uint64(n)
	return seq
}

// PostCallSeq is PostCall under a reserved ordinal: fn(a, i0, i1, i2) fires
// at (t, seq) among all other events. The caller keeps the order exact by
// posting before the key comes due: the key must not precede the event now
// firing, and the event must be queued before anything past it is popped.
// A stream of events whose keys ascend can thus keep one pending event in
// the queue, each posting its successor as it fires.
func (e *Engine) PostCallSeq(t Time, seq uint64, fn func(a any, i0, i1, i2 int64), a any, i0, i1, i2 int64) {
	if t < e.now {
		panic("sim: PostCallSeq called with a time in the past")
	}
	if seq >= e.seq {
		panic("sim: PostCallSeq called with an unreserved ordinal")
	}
	ev := e.events.Get()
	ev.afn, ev.a, ev.i0, ev.i1, ev.i2 = fn, a, i0, i1, i2
	e.pushSeq(ev, t, seq)
}

// postProc schedules p to be readied at t — the allocation-free core of
// Sleep and Yield.
func (e *Engine) postProc(t Time, p *Proc) {
	ev := e.events.Get()
	ev.proc = p
	e.push(ev, t)
}

package sim

// Event machinery for the hot path: a monotone radix queue over pooled Timer
// nodes.
//
// Events fire in the total order (at, seq): fire time, then post ordinal.
// The queue exploits what a discrete-event simulation guarantees: no event
// is posted before the clock, so keys only ever arrive at or after the key
// last popped. A radix queue sorts them lazily by how far they lie from it:
//
//   - last is the key of the most recent pop. Bucket i > 0 holds the timers
//     whose at differs from last first in bit i-1 (bits.Len64(at ^ last) ==
//     i), as a plain slice in arrival order; a 64-bit mask marks the
//     non-empty ones. Every key of a lower bucket is smaller than every key
//     of a higher one, so the minimum lies in bucket 0 or the lowest
//     non-empty bucket. Keys are never negative, so at ^ last has at most
//     63 bits and 64 buckets cover them.
//   - Bucket 0 holds the timers at exactly last, as a small binary heap
//     ordered by seq. Equal fire times always share a bucket and end up
//     here together, so ties fire in post order, reserved ordinals posted
//     late (PostCallSeq) included.
//   - Push is O(1): one append. Pop takes bucket 0's root; with bucket 0
//     empty it takes the lowest non-empty bucket. A lone timer there is the
//     minimum and pops directly (the common case on a shallow queue).
//     Otherwise pop scans that bucket for its smallest (at, seq), pops it,
//     makes its at the new last and redistributes the rest of the bucket
//     into lower ones. Buckets above it keep their index under the new
//     last, so each timer moves down at most 63 times however deep the
//     queue.
//
// Around it:
//
//   - Timer nodes for handle-free events (Post, PostCall, Sleep, Yield) come
//     from a per-engine Slab (slab.go) and are recycled as soon as they
//     fire, so steady-state scheduling allocates nothing;
//   - At/After still return a cancellable *Timer handle; those nodes are NOT
//     pooled (the engine cannot prove the caller dropped the handle, and
//     recycling under a live handle would let a stale Cancel kill an
//     unrelated event), they are simply garbage-collected;
//   - cancelled timers are compacted lazily: Cancel marks the node and the
//     queue drops them only once more than half of it is dead, instead of
//     carrying every corpse to the front one pop at a time.
//
// DESIGN.md §8.4 has the measurements and the variants that lost to it.

import "math/bits"

// Timer is a handle to a scheduled event. It may be cancelled before firing.
type Timer struct {
	at  Time
	seq uint64

	// Exactly one of the three fire actions is set: a plain closure, a
	// closure-free call (afn applied to the stashed args), or a proc to
	// ready (the Sleep/Yield fast path).
	fn         func()
	afn        func(a any, i0, i1, i2 int64)
	a          any
	i0, i1, i2 int64
	proc       *Proc

	eng       *Engine // owning engine (for cancel bookkeeping); nil on pooled nodes
	queued    bool    // currently in the queue (pending)
	pooled    bool    // node belongs to the engine free list
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. Cancel reports whether the event was
// still pending.
func (tm *Timer) Cancel() bool {
	if tm == nil || tm.cancelled {
		return false
	}
	if !tm.queued {
		return false
	}
	tm.cancelled = true
	if e := tm.eng; e != nil {
		e.ncancel++
		if e.ncancel > e.q.n/2 && e.q.n >= compactFloor {
			e.q.compact()
			e.ncancel = 0
		}
	}
	return true
}

// When reports the virtual time the timer is (or was) scheduled to fire.
func (tm *Timer) When() Time { return tm.at }

// compactFloor is the minimum queue length before lazy compaction triggers;
// below it the dead entries are cheaper to pop than to rebuild around.
const compactFloor = 64

// ---- the monotone radix queue ----

// queue holds the pending timers, cancelled ones included, in (at, seq)
// order (see the file comment).
type queue struct {
	last Time         // key of the most recent pop; no pending key is before it
	mask uint64       // bit i set iff b[i] is non-empty
	n    int          // pending timers
	b    [64][]*Timer // b[0]: at == last, a heap by seq; b[i]: bits.Len64(at^last) == i
}

// put appends tm, whose key must not be before last, to its bucket and
// returns the bucket's index. A caller that gets 0 sifts tm up bucket 0's
// heap; leaving that to the caller keeps put small enough to inline.
func (q *queue) put(tm *Timer) int {
	i := bits.Len64(uint64(tm.at ^ q.last))
	q.b[i] = append(q.b[i], tm)
	q.mask |= 1 << i
	return i
}

// pop removes and returns the first timer in (at, seq) order. The queue
// must not be empty.
func (q *queue) pop() *Timer {
	if q.mask&1 != 0 {
		return q.popZero()
	}
	// Bucket 0 is empty, so the first timer is the lowest non-empty bucket's
	// smallest (at, seq). Its at becomes last, and the bucket's other timers
	// move to lower buckets under it.
	i := bits.TrailingZeros64(q.mask)
	b := q.b[i]
	q.b[i] = b[:0]
	q.mask &^= 1 << i
	tm := b[0]
	for _, x := range b[1:] {
		if x.at < tm.at || x.at == tm.at && x.seq < tm.seq {
			tm = x
		}
	}
	q.last = tm.at
	if len(b) == 1 {
		b[0] = nil // a lone timer: nothing moves
	} else {
		for j, x := range b {
			b[j] = nil
			if x != tm && q.put(x) == 0 {
				seqUp(q.b[0], len(q.b[0])-1)
			}
		}
	}
	q.n--
	tm.queued = false
	return tm
}

// popZero pops the root of bucket 0's heap.
func (q *queue) popZero() *Timer {
	z := q.b[0]
	tm := z[0]
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
	tm.queued = false
	return tm
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
	for _, tm := range b[1:] {
		m = min(m, tm.at)
	}
	return m
}

// compact drops every cancelled timer. last does not move, so each live
// timer keeps its bucket; bucket 0 is rebuilt as a heap.
func (q *queue) compact() {
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := q.b[i]
		live := b[:0]
		for _, tm := range b {
			if tm.cancelled {
				tm.queued = false
				continue
			}
			live = append(live, tm)
			if i == 0 {
				seqUp(live, len(live)-1)
			}
		}
		clear(b[len(live):])
		q.n -= len(b) - len(live)
		q.b[i] = live
		if len(live) == 0 {
			q.mask &^= 1 << i
		}
	}
}

// seqUp restores bucket 0's heap order after h[j] was added.
func seqUp(h []*Timer, j int) {
	tm := h[j]
	for j > 0 {
		p := (j - 1) >> 1
		if h[p].seq <= tm.seq {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = tm
}

// seqDown restores bucket 0's heap order after its root was replaced.
func seqDown(h []*Timer) {
	n := len(h)
	tm := h[0]
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].seq < h[c].seq {
			c++
		}
		if tm.seq <= h[c].seq {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = tm
}

// push stamps tm with its fire time and the next post ordinal — the
// (at, seq) key — and queues it.
func (e *Engine) push(tm *Timer, t Time) {
	e.seq++
	e.pushSeq(tm, t, e.seq-1)
}

// pushSeq queues tm under an explicit (at, seq) key and tracks the queue's
// high-water mark.
func (e *Engine) pushSeq(tm *Timer, t Time, seq uint64) {
	tm.at, tm.seq = t, seq
	tm.queued = true
	e.q.n++
	if e.q.put(tm) == 0 {
		seqUp(e.q.b[0], len(e.q.b[0])-1)
	}
	if e.q.n > e.highWater {
		e.highWater = e.q.n
	}
}

// ---- free list ----

// alloc returns a recycled pooled node, or a fresh one from the slab.
func (e *Engine) alloc() *Timer {
	tm := e.timers.Get()
	tm.pooled = true
	return tm
}

// recycle returns a fired pooled node to the free list. Escaped (At/After)
// nodes are left to the garbage collector: a caller may still hold the
// handle, and reusing the node under it would mis-target a later Cancel.
// Only the reference fields are cleared: the fire-action triple must be
// empty for correct dispatch on reuse (and for GC), while the scalars are
// overwritten by whichever schedule call next claims the node.
func (e *Engine) recycle(tm *Timer) {
	if !tm.pooled {
		return
	}
	tm.fn, tm.afn, tm.a, tm.proc = nil, nil, nil, nil
	e.timers.Put(tm)
}

// ---- scheduling ----

// At schedules fn to run when the virtual clock reaches t and returns a
// cancellable handle. Scheduling in the past (t < Now) is a programming
// error and panics. Handlers run inline in the event loop, whoever is
// driving it (see Engine), and must not block or park. For fire-and-forget
// events prefer Post/PostAfter, which recycle their timer node.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic("sim: At called with a time in the past")
	}
	tm := &Timer{fn: fn, eng: e}
	e.push(tm, t)
	return tm
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn at t with no handle: the event cannot be cancelled, and
// its timer node is pooled, so steady-state use allocates only fn's own
// closure (if any).
func (e *Engine) Post(t Time, fn func()) {
	if t < e.now {
		panic("sim: Post called with a time in the past")
	}
	tm := e.alloc()
	tm.fn = fn
	e.push(tm, t)
}

// PostAfter schedules fn to run d ticks from now, without a handle.
func (e *Engine) PostAfter(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Post(e.now+d, fn)
}

// PostCall schedules fn(a, i0, i1, i2) at t with no handle and no closure:
// the arguments ride in the pooled timer node, so hot paths that would
// otherwise allocate a capturing closure per event allocate nothing.
func (e *Engine) PostCall(t Time, fn func(a any, i0, i1, i2 int64), a any, i0, i1, i2 int64) {
	if t < e.now {
		panic("sim: PostCall called with a time in the past")
	}
	tm := e.alloc()
	tm.afn, tm.a, tm.i0, tm.i1, tm.i2 = fn, a, i0, i1, i2
	e.push(tm, t)
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
	tm := e.alloc()
	tm.afn, tm.a, tm.i0, tm.i1, tm.i2 = fn, a, i0, i1, i2
	e.pushSeq(tm, t, seq)
}

// postProc schedules p to be readied at t — the allocation-free core of
// Sleep and Yield.
func (e *Engine) postProc(t Time, p *Proc) {
	tm := e.alloc()
	tm.proc = p
	e.push(tm, t)
}

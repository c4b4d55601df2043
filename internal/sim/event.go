package sim

// Event machinery for the hot path: a hand-inlined 4-ary min-heap over
// pooled Timer nodes.
//
// The original implementation used container/heap over a slice of *Timer,
// which costs an interface-boxing allocation per operation and one heap
// allocation per At/After call; profile-wise those two were the largest
// single source of both CPU (sift comparisons through interface dispatch)
// and garbage in full-figure simulations. Here the heap is specialized:
//
//   - 4-ary layout: shallower than binary (fewer cache-missing levels) with
//     the 4 children adjacent in memory, a standard DES event-queue trick;
//   - Timer nodes for handle-free events (Post, PostCall, Sleep, Yield) come
//     from a per-engine free list and are recycled as soon as they fire, so
//     steady-state scheduling allocates nothing;
//   - At/After still return a cancellable *Timer handle; those nodes are NOT
//     pooled (the engine cannot prove the caller dropped the handle, and
//     recycling under a live handle would let a stale Cancel kill an
//     unrelated event), they are simply garbage-collected;
//   - cancelled timers are compacted lazily: Cancel marks the node and the
//     heap is rebuilt without them only once more than half the queue is
//     dead, instead of carrying every corpse to the root one pop at a time.
//
// Event order is the total order (at, seq) — identical to the previous
// implementation, so virtual timelines are bit-for-bit unchanged (the
// determinism digests in internal/adi assert this).

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
	queued    bool    // currently in the heap (pending)
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
		if e.ncancel > len(e.pq)/2 && len(e.pq) >= compactFloor {
			e.compact()
		}
	}
	return true
}

// When reports the virtual time the timer is (or was) scheduled to fire.
func (tm *Timer) When() Time { return tm.at }

// compactFloor is the minimum queue length before lazy compaction triggers;
// below it the dead entries are cheaper to pop than to rebuild around.
const compactFloor = 64

// timerLess is the total order on events: fire time, then post order.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---- 4-ary heap (methods on Engine; the heap lives in e.pq) ----

// heapPush stamps tm with its fire time and the next post ordinal — the
// (at, seq) key — and queues it.
func (e *Engine) heapPush(tm *Timer, t Time) {
	e.seq++
	e.heapPushSeq(tm, t, e.seq-1)
}

// heapPushSeq queues tm under an explicit (at, seq) key and tracks the
// queue's high-water mark.
func (e *Engine) heapPushSeq(tm *Timer, t Time, seq uint64) {
	tm.at, tm.seq = t, seq
	tm.queued = true
	e.pq = append(e.pq, tm)
	if len(e.pq) > e.highWater {
		e.highWater = len(e.pq)
	}
	e.siftUp(len(e.pq) - 1)
}

func (e *Engine) heapPop() *Timer {
	h := e.pq
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.pq = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	top.queued = false
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.pq
	tm := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = tm
}

func (e *Engine) siftDown(i int) {
	h := e.pq
	n := len(h)
	tm := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], tm) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = tm
}

// compact rebuilds the heap without cancelled entries.
func (e *Engine) compact() {
	h := e.pq
	live := h[:0]
	for _, tm := range h {
		if tm.cancelled {
			tm.queued = false
			continue
		}
		live = append(live, tm)
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	e.pq = live
	e.ncancel = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// ---- free list ----

// alloc returns a recycled pooled node, or a fresh one.
func (e *Engine) alloc() *Timer {
	if n := len(e.free); n > 0 {
		tm := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return tm
	}
	return &Timer{pooled: true}
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
	e.free = append(e.free, tm)
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
	e.heapPush(tm, t)
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
	e.heapPush(tm, t)
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
	e.heapPush(tm, t)
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
	e.heapPushSeq(tm, t, seq)
}

// postProc schedules p to be readied at t — the allocation-free core of
// Sleep and Yield.
func (e *Engine) postProc(t Time, p *Proc) {
	tm := e.alloc()
	tm.proc = p
	e.heapPush(tm, t)
}

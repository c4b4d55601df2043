package sim

// Waiter is a FIFO wait-list of parked procs: the simulation analogue of a
// condition variable. Procs park on it with Wait; handlers or other procs
// release them with WakeOne/WakeAll. There is no spurious wake-up, but the
// usual pattern is still a predicate loop:
//
//	for !ready() {
//		w.Wait(p, "waiting for ready")
//	}
//
// A Waiter's zero value is ready to use.
type Waiter struct {
	ps Ring[*Proc]
}

// Wait parks the calling proc on w until woken. why is recorded for
// deadlock diagnostics.
func (w *Waiter) Wait(p *Proc, why string) {
	w.ps.Push(p)
	p.park(why)
}

// WakeOne readies the longest-waiting proc, if any, and reports whether one
// was woken.
func (w *Waiter) WakeOne() bool {
	for w.ps.Len() > 0 {
		p := w.ps.Pop()
		if p.dead {
			continue
		}
		p.eng.Ready(p)
		return true
	}
	return false
}

// WakeAll readies every waiting proc in FIFO order.
func (w *Waiter) WakeAll() {
	for w.ps.Len() > 0 {
		if p := w.ps.Pop(); !p.dead {
			p.eng.Ready(p)
		}
	}
}

// Len reports the number of procs currently parked on w.
func (w *Waiter) Len() int { return w.ps.Len() }

// Queue is an unbounded FIFO with a blocking Get, the simulation analogue of
// a buffered channel. Put never blocks. The zero value is ready to use.
type Queue[T any] struct {
	items Ring[T]
	w     Waiter
}

// Put appends v and wakes one waiting getter.
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	q.w.WakeOne()
}

// Get removes and returns the head item, parking the calling proc while the
// queue is empty.
func (q *Queue[T]) Get(p *Proc, why string) T {
	for q.items.Len() == 0 {
		q.w.Wait(p, why)
	}
	return q.items.Pop()
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// go.mod says go 1.22 and must stay there: the nested benchmark/ module (also
// 1.22, not editable) will not build against a root that asks for more. This
// tag raises just this file's language version, which iter.Pull needs.
//
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Engine is a deterministic discrete-event simulation core.
//
// Two kinds of code execute under an Engine:
//
//   - event handlers, scheduled with Post, PostAfter and PostCall, which run
//     inline on whichever coroutine is driving the event loop (Run's caller,
//     or a proc inside park) and must never block;
//   - processes (Proc), coroutines that the engine resumes one at a time and
//     that may park on Waiters, Sleep, etc.
//
// Run's caller drives the loop only until the first proc parks. From then on
// the parker drives it: it fires events and resumes the next ready proc from
// its own coroutine (see park), and Run takes over again only when that proc
// dies, the engine stops, or nothing is left to run.
//
// Events fire in (at, seq) order, seq being the post ordinal. A stream of
// events with ascending keys need not sit in the queue all at once: it can
// set its ordinals aside with ReserveSeq and keep only its next event
// queued, each event posting its successor with PostCallSeq. The order is
// the same as if every event had been posted up front. QueueHighWater
// reports how deep the queue got.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	events Slab[event] // pooled event nodes

	highWater int // most events ever queued at once (telemetry)

	ready Ring[*Proc] // FIFO ready queue
	cur   *Proc       // proc currently holding the baton (nil in handlers)

	stopped bool
	running bool
	fired   uint64 // events executed (telemetry)

	skips    uint64 // Sleep/Yield wakes taken in place, bypassing the queue (telemetry)
	handoffs uint64 // procs a parker resumed itself instead of yielding to Run (telemetry)

	procRegistry []*Proc // every live (spawned, not yet finished) proc, for deadlock diagnostics

	// The event queue, ordered by (at, seq); see event.go. Last, so that
	// its 64 bucket headers do not push the fields above apart.
	q queue
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated process: an iter.Pull coroutine that runs only while it
// holds the engine's baton. All blocking is via park/Ready handoff, so at most
// one proc (or Run's caller) executes at any moment.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // resumes the body until it parks or returns
	yield  func(struct{}) bool     // suspends the body, returning from next
	queued bool                    // in the ready queue
	parked bool                    // waiting to be Ready'd
	nested bool                    // last resumed by a parked proc, not by Run
	dead   bool                    // body returned
	why    string                  // reason for the current park (diagnostics)
	regIdx int                     // position in Engine.procRegistry (for swap-removal on death)
}

// Name reports the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the engine's current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn registers a new process. The body starts running at the engine's
// current time (time zero if the engine has not started). Spawn may be called
// before Run, from handlers, or from other procs.
//
// The stop function iter.Pull returns is never called: it would resume a
// parked body with yield reporting false. A proc abandoned by Stop, RunUntil
// or a deadlock simply stays suspended for the life of the process.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
		p.dead = true
	})
	p.regIdx = len(e.procRegistry)
	e.procRegistry = append(e.procRegistry, p)
	e.enqueue(p)
	return p
}

func (e *Engine) enqueue(p *Proc) {
	if p.queued || p.dead {
		return
	}
	p.queued = true
	p.parked = false
	p.why = ""
	e.ready.Push(p)
}

// Ready moves a parked proc to the back of the ready queue. Readying a proc
// that is already queued, running, or dead is a no-op, so wake-ups are
// naturally idempotent.
func (e *Engine) Ready(p *Proc) {
	if p == e.cur || !p.parked {
		return
	}
	e.enqueue(p)
}

// park suspends the calling proc until somebody calls Engine.Ready(p).
// why is recorded for deadlock diagnostics.
//
// The parker does not switch to Run to wait: it runs Run's own loop in place.
// With nothing ready it fires the next event. When the head of the ready
// queue is the parker itself, park pops it and returns with no switch. When
// it is another proc q, the parker resumes q from its own coroutine and loops
// once q parks or dies, so a p→q→p handoff is two switches, not four through
// Run. A proc resumed that way is nested: it drives the loop too, but when
// someone other than itself must run next it yields back to its caller, so
// nesting never goes deeper than Run → p → q. On Stop, or with no event left
// (a deadlock or an empty world), the parker yields to Run, which decides.
func (p *Proc) park(why string) {
	e := p.eng
	if e.cur != p {
		panic("sim: park called outside the owning proc (handlers must not block)")
	}
	p.parked = true
	p.why = why
	e.cur = nil
	for !e.stopped {
		if e.ready.Len() == 0 {
			if e.fireNext() {
				continue
			}
			break
		}
		q := e.ready.Peek()
		if q == p {
			e.ready.Pop()
			p.queued = false
			e.cur = p
			return
		}
		if p.nested {
			break
		}
		e.ready.Pop()
		e.handoffs++
		e.runProc(q, true)
	}
	p.yield(struct{}{})
}

// Sleep suspends the calling proc for d ticks of virtual time. When the wake
// would be the next thing to run, the clock advances in place (see wakeAt).
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.wakeAt(p.eng.now+d, "sleep")
}

// Yield places the calling proc at the back of the ready queue, letting other
// ready procs and same-time events run first. With neither pending it
// returns at once (see wakeAt).
func (p *Proc) Yield() {
	p.wakeAt(p.eng.now, "yield")
}

// wakeAt parks p until a wake-up event at t fires. When p holds the baton,
// nothing is ready and t is strictly before every pending event, that event
// would be the next to fire and would find p alone at the head of the ready
// queue, so wakeAt takes it in place: it consumes the event's ordinal,
// advances the clock, counts it as fired and notes the queue depth the push
// would have reached. A tie on t is not taken: the pending event has the
// smaller ordinal. A handler calling Sleep fails e.cur == p and still panics
// in park.
func (p *Proc) wakeAt(t Time, why string) {
	e := p.eng
	if e.cur == p && !e.stopped && e.ready.Len() == 0 && e.q.before(t) {
		e.seq++
		e.now = t
		e.fired++
		e.highWater = max(e.highWater, e.q.n+1)
		e.skips++
		return
	}
	e.postProc(t, p)
	p.park(why)
}

// DeadlockError is returned by Run when live procs remain but no events are
// pending: every proc is parked forever.
type DeadlockError struct {
	Time    Time
	Parked  []string // "name: reason" for each parked proc
	NumLive int
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d live procs, all parked [%s]",
		d.Time, d.NumLive, strings.Join(d.Parked, "; "))
}

// Run executes the simulation until no work remains: all procs have finished
// and the event queue is empty. It returns a *DeadlockError if procs remain
// parked with no pending events, and nil on a clean completion. Run must not
// be called reentrantly. Once a proc parks it drives the loop (see park),
// and Run resumes only when that proc dies or yields because the engine
// stopped or ran out of events. A panic in a proc body (a nested one
// included), or in a handler fired while a proc drives the loop, resurfaces
// here on Run's caller; an engine that panicked is dead and must not be run
// again.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		// Drain the ready queue first: all work at the current instant
		// completes before the clock advances.
		e.drainReady()
		if e.stopped {
			break
		}
		// Advance the clock to the next pending event.
		if e.fireNext() {
			continue
		}
		// No ready procs, no events.
		if len(e.procRegistry) > 0 {
			return e.deadlock()
		}
		return nil
	}
	return nil
}

// runProc hands the baton to p until it parks, yields, or dies. nested is
// set when the caller is a parked proc rather than Run (see park).
func (e *Engine) runProc(p *Proc, nested bool) {
	p.queued = false
	p.nested = nested
	e.cur = p
	p.next()
	e.cur = nil
	if p.dead {
		e.unregister(p)
	}
}

// drainReady runs every ready proc until the queue empties: all work at the
// current instant completes before the clock advances.
func (e *Engine) drainReady() {
	for e.ready.Len() > 0 && !e.stopped {
		e.runProc(e.ready.Pop(), false)
	}
}

// fireNext pops and fires the next pending event, reporting whether one ran.
func (e *Engine) fireNext() bool {
	if e.q.n == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	// Pull the action out and recycle the node before firing, so
	// the handler's own scheduling can reuse it immediately.
	fn, afn, a := ev.fn, ev.afn, ev.a
	i0, i1, i2 := ev.i0, ev.i1, ev.i2
	p := ev.proc
	e.recycle(ev)
	switch {
	case p != nil:
		e.Ready(p)
	case afn != nil:
		afn(a, i0, i1, i2)
	default:
		fn()
	}
	e.fired++
	return true
}

// registryShrinkFloor is the minimum registry capacity before pruning kicks
// in; below it the slack is cheaper to keep than to reallocate around.
const registryShrinkFloor = 64

// unregister prunes a dead proc from the diagnostics registry (swap-remove),
// so long multi-run simulations do not retain every finished rank's record.
// When live procs fall below a quarter of the registry's capacity the
// backing array is reallocated at half size, so a simulation that spawned a
// large transient fleet does not pin the high-water array forever.
func (e *Engine) unregister(p *Proc) {
	i := p.regIdx
	last := len(e.procRegistry) - 1
	e.procRegistry[i] = e.procRegistry[last]
	e.procRegistry[i].regIdx = i
	e.procRegistry[last] = nil
	e.procRegistry = e.procRegistry[:last]
	if c := cap(e.procRegistry); c >= registryShrinkFloor && last < c/4 {
		shrunk := make([]*Proc, last, c/2)
		copy(shrunk, e.procRegistry)
		e.procRegistry = shrunk
	}
}

func (e *Engine) deadlock() *DeadlockError {
	d := &DeadlockError{Time: e.now, NumLive: len(e.procRegistry)}
	for _, p := range e.procRegistry {
		if !p.dead && p.parked {
			d.Parked = append(d.Parked, p.name+": "+p.why)
		}
	}
	sort.Strings(d.Parked)
	return d
}

// EventsFired reports how many events have executed (telemetry for
// performance analysis of the simulator itself).
func (e *Engine) EventsFired() uint64 { return e.fired }

// QueueHighWater reports the most events that were ever pending at once
// (telemetry: the depth the queue had to sort).
func (e *Engine) QueueHighWater() int { return e.highWater }

// LiveProcs reports spawned procs whose bodies have not returned. A nonzero
// value after RunUntil means the run did not complete within the horizon —
// the virtual-time watchdog signal used by the chaos harness.
func (e *Engine) LiveProcs() int { return len(e.procRegistry) }

// ParkedProcs lists "name: reason" for every live parked proc, sorted, for
// watchdog diagnostics.
func (e *Engine) ParkedProcs() []string {
	var out []string
	for _, p := range e.procRegistry {
		if !p.dead && p.parked {
			out = append(out, p.name+": "+p.why)
		}
	}
	sort.Strings(out)
	return out
}

// RunUntil executes the simulation until the clock would pass the deadline:
// all events at times ≤ deadline run; the engine then stops with pending
// later events intact. It returns nil even if procs remain parked (they
// may be waiting for events beyond the horizon).
//
// The horizon is a guard event posted at the deadline, so Run cannot finish
// before it fires. The one exception is a Stop from a handler or proc: Run
// then returns early and the guard stays queued, so a later Run stops at
// this deadline when it gets there, exactly as if Stop had been called then.
func (e *Engine) RunUntil(deadline Time) error {
	e.PostCall(deadline, stopEngine, e, 0, 0, 0)
	err := e.Run()
	e.stopped = false
	if _, ok := err.(*DeadlockError); ok {
		// Within a bounded window a parked-forever proc is not
		// distinguishable from one waiting past the horizon.
		return nil
	}
	return err
}

// Stop halts the simulation after the currently executing entity yields.
// Procs that have not finished stay suspended; Run returns nil.
func (e *Engine) Stop() { e.stopped = true }

// stopEngine is RunUntil's guard: a PostCall action that stops the engine a.
func stopEngine(a any, _, _, _ int64) { a.(*Engine).Stop() }

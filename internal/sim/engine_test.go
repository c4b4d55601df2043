package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Post(30*Nanosecond, func() { order = append(order, 3) })
	e.Post(10*Nanosecond, func() { order = append(order, 1) })
	e.Post(20*Nanosecond, func() { order = append(order, 2) })
	mustRun(t, e)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 30*Nanosecond {
		t.Errorf("final time = %v, want 30ns", e.Now())
	}
}

func TestSameTimeEventsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Post(5*Microsecond, func() { order = append(order, i) })
	}
	mustRun(t, e)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Post(100*Nanosecond, func() {
		e.PostAfter(50*Nanosecond, func() { at = e.Now() })
	})
	mustRun(t, e)
	if at != 150*Nanosecond {
		t.Errorf("fired at %v, want 150ns", at)
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post in the past should panic")
			}
		}()
		e.Post(5*Nanosecond, func() {})
	})
	mustRun(t, e)
}

func TestProcRunsAndFinishes(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("worker", func(p *Proc) { ran = true })
	mustRun(t, e)
	if !ran {
		t.Error("proc body never ran")
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
		p.Sleep(3 * Microsecond)
		wake = p.Now()
	})
	mustRun(t, e)
	if wake != 10*Microsecond {
		t.Errorf("woke at %v, want 10us", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(1 * Microsecond)
				}
			})
		}
		mustRun(t, e)
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: trace %v != first %v", i, got, first)
		}
	}
	// Spawn order is preserved at each time step.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("trace = %v, want %v", first, want)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(1 * Microsecond)
			childTime = c.Now()
		})
	})
	mustRun(t, e)
	if childTime != 6*Microsecond {
		t.Errorf("child finished at %v, want 6us", childTime)
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	mustRun(t, e)
	want := []string{"a1", "b1", "a2"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	var w Waiter
	e.Spawn("stuck", func(p *Proc) {
		w.Wait(p, "never woken")
	})
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if d.NumLive != 1 || len(d.Parked) != 1 || d.Parked[0] != "stuck: never woken" {
		t.Errorf("diagnostics = %+v", d)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("looper", func(p *Proc) {
		for {
			count++
			if count == 3 {
				e.Stop()
			}
			p.Sleep(1 * Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if !e.stopped {
		t.Error("engine not stopped after Stop")
	}
}

func TestHandlerWakesProc(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		w.Wait(p, "signal")
		woke = p.Now()
	})
	e.Post(42*Microsecond, func() { w.WakeAll() })
	mustRun(t, e)
	if woke != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", woke)
	}
}

func TestReadyIsIdempotent(t *testing.T) {
	e := NewEngine()
	var w Waiter
	wakes := 0
	var pr *Proc
	e.Spawn("w", func(p *Proc) {
		pr = p
		w.Wait(p, "once")
		wakes++
	})
	e.Post(1*Microsecond, func() {
		w.WakeAll()
		e.Ready(pr) // duplicate; must be a no-op
		e.Ready(pr)
	})
	mustRun(t, e)
	if wakes != 1 {
		t.Errorf("woke %d times, want 1", wakes)
	}
}

func TestParkOutsideProcPanics(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var pr *Proc
	e.Spawn("p", func(p *Proc) { pr = p })
	mustRun(t, e)
	defer func() {
		if recover() == nil {
			t.Error("park outside proc should panic")
		}
	}()
	w.Wait(pr, "illegal")
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Post(10*Microsecond, func() { fired = append(fired, 1) })
	e.Post(20*Microsecond, func() { fired = append(fired, 2) })
	e.Post(30*Microsecond, func() { fired = append(fired, 3) })
	if err := e.RunUntil(20 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	// Resume to the end.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v after resume", fired)
	}
}

func TestRunUntilWithParkedProc(t *testing.T) {
	e := NewEngine()
	var w Waiter
	woke := false
	e.Spawn("sleeper", func(p *Proc) {
		w.Wait(p, "beyond horizon")
		woke = true
	})
	e.Post(100*Microsecond, func() { w.WakeAll() })
	if err := e.RunUntil(50 * Microsecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if woke {
		t.Error("proc woke before its event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("proc never woke after resume")
	}
}

// A Stop before the horizon ends RunUntil early and leaves its guard
// queued: the next Run stops at that horizon, as a Stop would.
func TestRunUntilGuardOutlivesStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Post(5*Microsecond, e.Stop)
	e.Post(30*Microsecond, func() { fired = append(fired, e.Now()) })
	if err := e.RunUntil(20 * Microsecond); err != nil || e.Now() != 5*Microsecond {
		t.Fatalf("RunUntil = %v at %v, want nil at 5us", err, e.Now())
	}
	if err := e.Run(); err != nil || e.Now() != 20*Microsecond || len(fired) != 0 || e.EventsFired() != 2 {
		t.Errorf("Run = %v at %v with %v fired, %d events; want nil at the 20us guard, 2 events",
			err, e.Now(), fired, e.EventsFired())
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		e.Post(Time(i)*Microsecond, func() {})
	}
	mustRun(t, e)
	if e.EventsFired() != 5 {
		t.Errorf("EventsFired = %d, want 5", e.EventsFired())
	}
}

// TestProcRegistryPrune is the regression test for the Spawn registry leak:
// after a large transient fleet dies, the registry backing array must shrink
// instead of pinning the high-water capacity forever.
func TestProcRegistryPrune(t *testing.T) {
	e := NewEngine()
	const fleet = 4096
	for i := 0; i < fleet; i++ {
		e.Spawn("transient", func(p *Proc) {})
	}
	var parked *Proc
	e.Spawn("keeper", func(p *Proc) { p.park("held") })
	if err := e.Run(); err == nil {
		t.Fatal("want deadlock (keeper parked)")
	}
	if got := cap(e.procRegistry); got >= fleet/4 {
		t.Fatalf("registry not pruned: cap=%d after %d procs died", got, fleet)
	}
	if len(e.procRegistry) != 1 || e.procRegistry[0].name != "keeper" {
		t.Fatalf("survivor lost during pruning: %d entries", len(e.procRegistry))
	}
	if e.procRegistry[0].regIdx != 0 {
		t.Fatalf("bad regIdx after pruning: %d", e.procRegistry[0].regIdx)
	}
	_ = parked
}

// TestProcRegistryPruneKeepsDiagnostics interleaves dying and surviving
// procs so swap-removal plus shrinking must preserve every survivor's
// registry slot.
func TestProcRegistryPruneKeepsDiagnostics(t *testing.T) {
	e := NewEngine()
	const n = 512
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			e.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.park("survivor") })
		} else {
			e.Spawn("t", func(p *Proc) {})
		}
	}
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if want := n / 8; de.NumLive != want || len(de.Parked) != want {
		t.Fatalf("diagnostics lost procs: live=%d parked=%d want %d", de.NumLive, len(de.Parked), want)
	}
	for i, p := range e.procRegistry {
		if p.regIdx != i {
			t.Fatalf("registry index desync at %d", i)
		}
	}
}

// Delay shapes for heapScript, each aimed at one part of the radix queue.
const (
	shapeTicks  = iota // a few ticks, now and then up to 1000: ties decide most pops
	shapeTies          // 0 or 1 tick: deep bucket 0 and redistributed ties
	shapeBit62         // some keys 2^62 ahead: keys differing only in bit 62
	shapeSpread        // up to 2^20 ticks: many lone-entry pops beside deep buckets
	numShapes
)

// heapScript drives one engine with a seeded random mix of Post, PostAfter,
// PostCall, reserved PostCallSeq blocks and Sleep — n posts before Run,
// then follow-up posts from handlers and three sleeping procs — and checks
// the firing order against the reference: a stable sort of the posts by
// (fire time, post ordinal). shape picks the delays; with shapeTicks they
// are a few ticks, so most instants hold several events and the ordinal
// decides.
func heapScript(t *testing.T, seed uint64, n, shape int) {
	type post struct {
		at    Time
		fired bool
	}
	e := NewEngine()
	var (
		posts []post // index = post ordinal
		got   []int
		left  = 4 * n // posts still allowed, so the run terminates
	)
	rnd := rand.New(rand.NewSource(int64(seed))).Intn
	newPost := func(d Time) int {
		left--
		posts = append(posts, post{at: e.Now() + d})
		return len(posts) - 1
	}
	delay := func() Time {
		switch shape {
		case shapeTies:
			return Time(rnd(2))
		case shapeBit62:
			if e.Now() < 1<<62 && rnd(4) == 0 {
				return 1<<62 + Time(rnd(2))
			}
			return Time(rnd(4))
		case shapeSpread:
			return Time(rnd(1 << 20))
		}
		if rnd(8) == 0 {
			return Time(rnd(1000))
		}
		return Time(rnd(4))
	}
	var fire func(id int)
	schedule := func() {
		d := delay()
		id := newPost(d)
		switch rnd(8) {
		case 0:
			e.Post(e.Now()+d, func() { fire(id) })
		case 1:
			e.PostCall(e.Now()+d, func(_ any, id, _, _ int64) { fire(int(id)) }, nil, int64(id), 0, 0)
		case 2:
			// A reserved block: k ordinals set aside now, with ascending
			// fire times, posted one at a time from the previous member.
			k := 1 + rnd(4)
			for j := 1; j < k; j++ {
				newPost(posts[len(posts)-1].at - e.Now() + Time(rnd(3)))
			}
			base := e.ReserveSeq(k)
			var member func(_ any, j, _, _ int64)
			member = func(_ any, j, _, _ int64) {
				if next := int(j) + 1; next < k {
					e.PostCallSeq(posts[id+next].at, base+uint64(next), member, nil, int64(next), 0, 0)
				}
				fire(id + int(j))
			}
			e.PostCallSeq(posts[id].at, base, member, nil, 0, 0, 0)
		default:
			e.PostAfter(d, func() { fire(id) })
		}
	}
	fire = func(id int) {
		if p := &posts[id]; p.fired || p.at != e.Now() {
			t.Fatalf("post %d fired at %v: %+v", id, e.Now(), *p)
		}
		posts[id].fired = true
		got = append(got, id)
		for k := rnd(3); k > 0 && left > 0; k-- {
			schedule()
		}
		checkQueue(t, &e.q)
	}

	for i := 0; i < n; i++ {
		schedule()
	}
	for i := 0; i < 3; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			for left > 0 {
				d := delay()
				id := newPost(d)
				p.Sleep(d)
				fire(id)
			}
		})
	}
	mustRun(t, e)

	want := make([]int, len(posts))
	for id := range want {
		want[id] = id
	}
	sort.SliceStable(want, func(i, j int) bool { return posts[want[i]].at < posts[want[j]].at })
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("firing order leaves (at, ordinal) order at %d of %d/%d fired", i, len(got), len(want))
	}
}

// TestTimerHeapMatchesStableSort is the seeded property test of the one
// event order: the radix queue and the free list together fire exactly what
// a stable sort by fire time would, under every delay shape.
func TestTimerHeapMatchesStableSort(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for seed := uint64(1); seed <= 40; seed++ {
			heapScript(t, seed, 200, shape)
		}
	}
}

// FuzzTimerHeap runs the same script on fuzzed sizes and delay shapes.
func FuzzTimerHeap(f *testing.F) {
	f.Add(uint64(1), uint8(199), uint8(shapeTicks))
	f.Add(uint64(42), uint8(255), uint8(shapeTicks))
	f.Add(uint64(7), uint8(15), uint8(shapeTicks))
	f.Add(uint64(3), uint8(120), uint8(shapeTies))
	f.Add(uint64(5), uint8(64), uint8(shapeBit62))
	f.Add(uint64(9), uint8(255), uint8(shapeSpread))
	f.Fuzz(func(t *testing.T, seed uint64, n, shape uint8) {
		heapScript(t, seed, int(n)+1, int(shape)%numShapes)
	})
}

func TestPostCallSeqRejectsPastAndUnreserved(t *testing.T) {
	e := NewEngine()
	nop := func(any, int64, int64, int64) {}
	seq := e.ReserveSeq(2)
	e.PostCall(10, func(any, int64, int64, int64) {
		if r := mustPanic(t, func() { e.PostCallSeq(9, seq, nop, nil, 0, 0, 0) }); r != "sim: PostCallSeq called with a time in the past" {
			t.Errorf("past: panicked with %v", r)
		}
		if r := mustPanic(t, func() { e.PostCallSeq(20, seq+3, nop, nil, 0, 0, 0) }); r != "sim: PostCallSeq called with an unreserved ordinal" {
			t.Errorf("unreserved: panicked with %v", r)
		}
		e.PostCallSeq(10, seq+1, nop, nil, 0, 0, 0)
	}, nil, 0, 0, 0)
	mustRun(t, e)
	if e.EventsFired() != 2 || e.QueueHighWater() != 1 {
		t.Errorf("fired %d, high-water %d; want 2, 1", e.EventsFired(), e.QueueHighWater())
	}
}

// ---- a proc is the driver ----
//
// A proc that parks runs the event loop itself until some proc is runnable,
// so handlers fire on a proc's coroutine as often as on Run's caller. These
// tests pin what must not depend on who is driving.

// mustPanic runs f and returns the value it panicked with.
func mustPanic(t *testing.T, f func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	f()
	return nil
}

func TestBodyPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(5 * Microsecond) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		panic("body boom")
	})
	if r := mustPanic(t, func() { e.Run() }); r != "body boom" {
		t.Errorf("Run panicked with %v, want the body's value", r)
	}
}

func TestHandlerPanicSurfacesFromRunWhileProcDrives(t *testing.T) {
	e := NewEngine()
	e.Spawn("driver", func(p *Proc) { p.Sleep(10 * Microsecond) })
	e.Post(5*Microsecond, func() { panic("handler boom") })
	if r := mustPanic(t, func() { e.Run() }); r != "handler boom" {
		t.Errorf("Run panicked with %v, want the handler's value", r)
	}
}

func TestStopFromHandlerInsidePark(t *testing.T) {
	e := NewEngine()
	var w Waiter
	resumed := false
	e.Spawn("driver", func(p *Proc) {
		w.Wait(p, "signal")
		resumed = true
	})
	// The wake puts the driver itself at the head of the ready queue; the
	// Stop that follows must still keep it from running.
	e.Post(5*Microsecond, func() {
		w.WakeAll()
		e.Stop()
	})
	e.Post(6*Microsecond, func() { t.Error("event fired after Stop") })
	mustRun(t, e)
	if resumed || e.Now() != 5*Microsecond || e.LiveProcs() != 1 {
		t.Errorf("resumed=%v now=%v live=%d, want a suspended driver at 5us",
			resumed, e.Now(), e.LiveProcs())
	}
}

func TestRunUntilHorizonInsidePark(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(10 * Microsecond)
			wakes = append(wakes, p.Now())
		}
	})
	for _, h := range []Time{5 * Microsecond, 15 * Microsecond} {
		if err := e.RunUntil(h); err != nil {
			t.Fatal(err)
		}
		if e.Now() != h || e.LiveProcs() != 1 || !reflect.DeepEqual(e.ParkedProcs(), []string{"sleeper: sleep"}) {
			t.Fatalf("horizon %v: now=%v live=%d parked=%v", h, e.Now(), e.LiveProcs(), e.ParkedProcs())
		}
	}
	mustRun(t, e)
	if want := []Time{10 * Microsecond, 20 * Microsecond}; !reflect.DeepEqual(wakes, want) || e.LiveProcs() != 0 {
		t.Errorf("wakes = %v live=%d, want %v and a finished proc", wakes, e.LiveProcs(), want)
	}
}

func TestDeadlockWhenLastDriverWasProc(t *testing.T) {
	e := NewEngine()
	var never Waiter
	e.Spawn("a", func(p *Proc) { never.Wait(p, "lost") })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(5 * Microsecond) // b fires its own wake, then runs out of events
		never.Wait(p, "lost too")
	})
	var d *DeadlockError
	if err := e.Run(); !errors.As(err, &d) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if want := []string{"a: lost", "b: lost too"}; d.Time != 5*Microsecond || d.NumLive != 2 || !reflect.DeepEqual(d.Parked, want) {
		t.Errorf("diagnostics = %+v, want %v at 5us", d, want)
	}
}

func TestHandlerMustNotBlockWhileProcDrives(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var driver *Proc
	finished := false
	e.Spawn("driver", func(p *Proc) {
		driver = p
		p.Sleep(10 * Microsecond)
		finished = true
	})
	e.Post(5*Microsecond, func() {
		// The handler runs on the driver's own coroutine; it still is not
		// the driver, and parking "as" it must be refused.
		r := mustPanic(t, func() { w.Wait(driver, "illegal") })
		if s, _ := r.(string); !strings.Contains(s, "handlers must not block") {
			t.Errorf("panic = %v", r)
		}
	})
	mustRun(t, e)
	if !finished {
		t.Error("driver never finished")
	}
}

func TestProcSpawnedByHandlerRunsBeforeParkerResumes(t *testing.T) {
	e := NewEngine()
	var trace []string
	spawn := func(name string) func() {
		return func() { e.Spawn(name, func(*Proc) { trace = append(trace, name) }) }
	}
	// Three events at 10us, in post order: spawn "early", the parker's own
	// wake, spawn "late" (posted from a handler after the parker slept).
	e.Post(10*Microsecond, spawn("early"))
	e.Spawn("parker", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		trace = append(trace, "parker")
	})
	e.Post(5*Microsecond, func() { e.PostAfter(5*Microsecond, spawn("late")) })
	mustRun(t, e)
	if want := []string{"early", "parker", "late"}; !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

// ---- a wake that is next skips the queue ----
//
// A Sleep or Yield whose wake would be the next event advances the clock in
// place. These tests pin the cases where that must not happen, or must look
// exactly as if the wake had gone through the queue.

func TestSleepWakeTyingAnEventFiresAfterIt(t *testing.T) {
	e := NewEngine()
	var trace []string
	at := func(who string) { trace = append(trace, fmt.Sprintf("%s@%v", who, e.Now())) }
	e.Post(10*Microsecond, func() { at("event") })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond) // strictly before the event
		at("sleeper")
		p.Sleep(5 * Microsecond) // ties it: the event was posted first
		at("sleeper")
		p.Yield() // nothing pending at now
		at("sleeper")
	})
	mustRun(t, e)
	if want := []string{"sleeper@5us", "event@10us", "sleeper@10us", "sleeper@10us"}; !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
	// Each wake took an ordinal, queued or not: the next post gets the 5th.
	if e.EventsFired() != 4 || e.QueueHighWater() != 2 || e.ReserveSeq(0) != 4 {
		t.Errorf("fired %d, high-water %d, next ordinal %d; want 4, 2, 4", e.EventsFired(), e.QueueHighWater(), e.ReserveSeq(0))
	}
}

func TestSleepWhileAnotherProcIsReadyWaitsItsTurn(t *testing.T) {
	e := NewEngine()
	var trace []string
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
			p.Sleep(1 * Microsecond) // a: b is ready and must run at 0 first
			trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	mustRun(t, e)
	if want := []string{"a@0ps", "b@0ps", "a@1us", "b@1us"}; !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestRunUntilHorizonBeforeTheWake(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for _, d := range []Time{2 * Microsecond, 10 * Microsecond} {
			p.Sleep(d) // the first lands before the horizon, the second past it
			wakes = append(wakes, p.Now())
		}
	})
	if err := e.RunUntil(5 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*Microsecond || !reflect.DeepEqual(wakes, []Time{2 * Microsecond}) ||
		!reflect.DeepEqual(e.ParkedProcs(), []string{"sleeper: sleep"}) {
		t.Fatalf("at the horizon: now=%v wakes=%v parked=%v", e.Now(), wakes, e.ParkedProcs())
	}
	mustRun(t, e)
	if want := []Time{2 * Microsecond, 12 * Microsecond}; !reflect.DeepEqual(wakes, want) || e.LiveProcs() != 0 {
		t.Errorf("wakes = %v live=%d, want %v and a finished proc", wakes, e.LiveProcs(), want)
	}
}

func TestStopFromHandlerHaltsASleepLoop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(1 * Microsecond)
			count++
		}
	})
	e.Post(3500*Nanosecond, e.Stop)
	e.Post(10*Microsecond, func() { t.Error("event fired after Stop") })
	mustRun(t, e)
	if count != 3 || e.Now() != 3500*Nanosecond || e.LiveProcs() != 1 {
		t.Errorf("count=%d now=%v live=%d, want 3 wakes and a stop at 3.5us", count, e.Now(), e.LiveProcs())
	}
}

func TestHandlerSleepingAProcPanics(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var pr *Proc
	var woke Time
	e.Spawn("held", func(p *Proc) {
		pr = p
		w.Wait(p, "held")
		woke = p.Now()
	})
	// When this handler fires, the queue is empty and nothing is ready.
	e.Post(5*Microsecond, func() {
		r := mustPanic(t, func() { pr.Sleep(1 * Microsecond) })
		if s, _ := r.(string); !strings.Contains(s, "handlers must not block") {
			t.Errorf("panic = %v", r)
		}
		w.WakeAll()
	})
	mustRun(t, e)
	if woke != 5*Microsecond {
		t.Errorf("held proc woke at %v, want 5us", woke)
	}
}

// ---- a parker resumes the next proc itself ----
//
// A parked proc runs the next ready proc from its own coroutine, and that
// nested proc yields back to it when someone else must run. These tests pin
// what must not depend on who resumed whom.

func TestNestedProcReadiesItsCaller(t *testing.T) {
	e := NewEngine()
	var trace []string
	at := func(what string) { trace = append(trace, fmt.Sprintf("%s@%v", what, e.Now())) }
	var pw Waiter
	e.Spawn("p", func(p *Proc) {
		at("p start")
		pw.Wait(p, "caller") // the baton goes to q
		at("p woken")
		p.Sleep(2 * Microsecond)
		at("p done")
	})
	e.Spawn("q", func(q *Proc) {
		at("q start")
		pw.WakeOne()
		at("q readied p")
		q.Sleep(1 * Microsecond)
		at("q done")
	})
	mustRun(t, e)
	want := []string{"p start@0ps", "q start@0ps", "q readied p@0ps", "p woken@0ps", "q done@1us", "p done@2us"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestNestedProcSpawnsAndProcsDie(t *testing.T) {
	e := NewEngine()
	var trace []string
	at := func(what string) { trace = append(trace, fmt.Sprintf("%s@%v", what, e.Now())) }
	var w Waiter
	e.Spawn("p", func(p *Proc) {
		at("p start")
		w.Wait(p, "r's wake")
		at("p end")
	})
	e.Spawn("q", func(q *Proc) {
		at("q start")
		e.Spawn("r", func(*Proc) {
			at("r runs")
			w.WakeOne()
		})
		q.Sleep(1 * Microsecond)
		at("q end")
	})
	mustRun(t, e)
	want := []string{"p start@0ps", "q start@0ps", "r runs@0ps", "p end@0ps", "q end@1us"}
	if !reflect.DeepEqual(trace, want) || e.LiveProcs() != 0 || len(e.procRegistry) != 0 {
		t.Errorf("trace = %v live=%d registry=%d, want %v and none left", trace, e.LiveProcs(), len(e.procRegistry), want)
	}
}

func TestNestedProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	var w Waiter
	e.Spawn("caller", func(p *Proc) { w.Wait(p, "forever") })
	e.Spawn("nested", func(q *Proc) {
		q.Sleep(1 * Microsecond)
		panic("nested boom")
	})
	if r := mustPanic(t, func() { e.Run() }); r != "nested boom" {
		t.Errorf("Run panicked with %v, want the nested body's value", r)
	}
}

func TestDeadlockWhileNested(t *testing.T) {
	e := NewEngine()
	var never Waiter
	e.Spawn("caller", func(p *Proc) { never.Wait(p, "lost") })
	e.Spawn("nested", func(q *Proc) {
		q.Sleep(5 * Microsecond)
		never.Wait(q, "lost too")
	})
	var d *DeadlockError
	if err := e.Run(); !errors.As(err, &d) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if want := []string{"caller: lost", "nested: lost too"}; d.Time != 5*Microsecond || d.NumLive != 2 || !reflect.DeepEqual(d.Parked, want) {
		t.Errorf("diagnostics = %+v, want %v at 5us", d, want)
	}
}

func TestStopWhileNested(t *testing.T) {
	e := NewEngine()
	var w Waiter
	count := 0
	e.Spawn("caller", func(p *Proc) { w.Wait(p, "held") })
	e.Spawn("nested", func(q *Proc) {
		for {
			q.Sleep(1 * Microsecond)
			count++
		}
	})
	e.Post(3500*Nanosecond, e.Stop)
	mustRun(t, e)
	if count != 3 || e.Now() != 3500*Nanosecond || e.LiveProcs() != 2 {
		t.Errorf("count=%d now=%v live=%d, want 3 wakes, a stop at 3.5us and both procs live", count, e.Now(), e.LiveProcs())
	}
}

func TestRunUntilWhileNested(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var woke Time
	e.Spawn("caller", func(p *Proc) {
		w.Wait(p, "held")
		woke = p.Now()
	})
	e.Spawn("nested", func(q *Proc) {
		for i := 0; i < 3; i++ {
			q.Sleep(10 * Microsecond)
		}
		w.WakeOne()
	})
	if err := e.RunUntil(15 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if want := []string{"caller: held", "nested: sleep"}; e.Now() != 15*Microsecond || !reflect.DeepEqual(e.ParkedProcs(), want) {
		t.Fatalf("at the horizon: now=%v parked=%v, want %v", e.Now(), e.ParkedProcs(), want)
	}
	// Run, not the caller, resumes the once-nested proc now.
	mustRun(t, e)
	if woke != 30*Microsecond || e.LiveProcs() != 0 {
		t.Errorf("caller woke at %v live=%d, want 30us and none left", woke, e.LiveProcs())
	}
}

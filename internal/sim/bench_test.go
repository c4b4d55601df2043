package sim

import (
	"fmt"
	"testing"
)

// The engine's own hot paths, in the shapes benchmark/ladder measures them
// (sim.park_resume_ns, sim.post_fire_ns) plus the cross-proc switch the
// ladder has no row for:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim

// sleeper runs body inside the only proc of a fresh engine; step is one
// Sleep(1). The proc's wake is always the next event, so the clock advances
// in place and the proc never leaves its coroutine.
func sleeper(body func(e *Engine, step func())) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { body(e, func() { p.Sleep(1) }) })
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// pingPong runs body inside one of two procs; step is one round trip through
// two Waiters, so every step switches to the other proc and back. The first
// proc to park resumes the other directly, which yields straight back.
func pingPong(body func(e *Engine, step func())) {
	ring(2, body)
}

// ring3 is pingPong over three procs: the one that drives resumes each of the
// other two in turn, and the first yields back to it to let the second run.
func ring3(body func(e *Engine, step func())) {
	ring(3, body)
}

// ring runs body inside the last of n procs that pass a token around a cycle
// of Waiters; step is one lap.
func ring(n int, body func(e *Engine, step func())) {
	e := NewEngine()
	ws := make([]Waiter, n)
	done := false
	for i := 0; i < n-1; i++ {
		e.Spawn(fmt.Sprint("hop", i), func(p *Proc) {
			for !done {
				ws[i].Wait(p, "token")
				ws[i+1].WakeOne()
			}
		})
	}
	e.Spawn("lap", func(p *Proc) {
		body(e, func() {
			ws[0].WakeOne()
			ws[n-1].Wait(p, "lap")
		})
		done = true
		for i := range ws {
			ws[i].WakeAll()
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
}

func benchSteps(b *testing.B, shape func(func(e *Engine, step func()))) {
	b.ReportAllocs()
	shape(func(_ *Engine, step func()) {
		step() // first use grows the timer free list and the rings
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

func BenchmarkSleep(b *testing.B)    { benchSteps(b, sleeper) }
func BenchmarkPingPong(b *testing.B) { benchSteps(b, pingPong) }

// BenchmarkPostFire posts and fires one event at a time over a queue that
// already holds depth far-future events. Each post is the new minimum, which
// flatters any queue; BenchmarkHold measures the traffic the queue serves.
func BenchmarkPostFire(b *testing.B) {
	for _, depth := range []int{10, 1000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			far := Time(b.N) + Second
			for i := 0; i < depth; i++ {
				e.Post(far+Time(i), func() {})
			}
			left := b.N
			var next func()
			next = func() {
				if left--; left > 0 {
					e.PostAfter(1, next)
				}
			}
			e.PostAfter(1, next)
			b.ResetTimer()
			if err := e.RunUntil(far - 1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkHold is the classic hold model: depth events are pending, and
// each one that fires posts a successor a random 0–65 535 ticks later, so
// one op is one pop plus one push at a steady depth. The depths are the
// average queue depths of the benchmark workloads: p2p_lat 3, p2p_bw and
// coll_mix 22, chaos_routed 110, scale_ring 550.
func BenchmarkHold(b *testing.B) {
	for _, depth := range []int{3, 22, 110, 550} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			h := &hold{e: NewEngine(), left: b.N, x: 88172645463325252}
			for i := 0; i < depth; i++ {
				h.post()
			}
			b.ResetTimer()
			if err := h.e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// hold is BenchmarkHold's state: the posts still to make and an xorshift
// generator for the delays.
type hold struct {
	e    *Engine
	left int
	x    uint64
}

func (h *hold) post() {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	h.e.PostCall(h.e.Now()+Time(h.x&0xFFFF), holdFire, h, 0, 0, 0)
}

func holdFire(a any, _, _, _ int64) {
	if h := a.(*hold); h.left > 0 {
		h.left--
		h.post()
	}
}

// TestSwitchNoAllocs pins the steady state of every switch shape at zero
// allocations, and checks each shape takes the path it is named for: a Sleep
// whose wake is taken in place, and a parker resuming the next proc itself
// (once per lap of two procs, twice per lap of three).
func TestSwitchNoAllocs(t *testing.T) {
	for _, c := range []struct {
		name            string
		shape           func(func(e *Engine, step func()))
		skips, handoffs uint64 // per step
	}{{"sleep", sleeper, 1, 0}, {"pingpong", pingPong, 0, 1}, {"ring3", ring3, 0, 2}} {
		c.shape(func(e *Engine, step func()) {
			step()
			skips, handoffs := e.skips, e.handoffs
			const runs = 1000
			if n := testing.AllocsPerRun(runs, step); n != 0 {
				t.Errorf("%s: %v allocs per step, want 0", c.name, n)
			}
			// AllocsPerRun adds one warm-up call.
			if s, h := e.skips-skips, e.handoffs-handoffs; s != c.skips*(runs+1) || h != c.handoffs*(runs+1) {
				t.Errorf("%s: %d skips, %d handoffs over %d steps; want %d and %d per step", c.name, s, h, runs+1, c.skips, c.handoffs)
			}
		})
	}
}

// TestPingPongTakesBothPaths runs the shape of a p2p_lat round trip: each
// side charges CPU time with Sleep, then wakes its peer and waits. Every
// charge but the first (rank1 has not run yet) is taken in place, and every
// wait of rank0 hands the baton straight to rank1.
func TestPingPongTakesBothPaths(t *testing.T) {
	e := NewEngine()
	var ws [2]Waiter
	const rounds = 10
	for i := range ws {
		e.Spawn(fmt.Sprint("rank", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				if i == 1 || r > 0 {
					ws[i].Wait(p, "recv")
				}
				p.Sleep(Microsecond)
				ws[1-i].WakeOne()
			}
		})
	}
	mustRun(t, e)
	if e.Now() != 2*rounds*Microsecond || e.EventsFired() != 2*rounds {
		t.Fatalf("now=%v fired=%d, want %v and %d", e.Now(), e.EventsFired(), 2*rounds*Microsecond, 2*rounds)
	}
	if e.skips != 2*rounds-1 || e.handoffs != rounds {
		t.Errorf("skips=%d handoffs=%d, want %d and %d", e.skips, e.handoffs, 2*rounds-1, rounds)
	}
}

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
// Sleep(1). The proc's wake is always the next event, so it fires it itself
// and never leaves its coroutine.
func sleeper(body func(step func())) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { body(func() { p.Sleep(1) }) })
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// pingPong runs body inside one of two procs; step is one round trip through
// two Waiters, so every step switches to the other proc and back.
func pingPong(body func(step func())) {
	e := NewEngine()
	var ping, pong Waiter
	done := false
	e.Spawn("pong", func(p *Proc) {
		for !done {
			ping.Wait(p, "ping")
			pong.WakeOne()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		body(func() {
			ping.WakeOne()
			pong.Wait(p, "pong")
		})
		done = true
		ping.WakeOne()
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
}

func benchSteps(b *testing.B, shape func(func(step func()))) {
	b.ReportAllocs()
	shape(func(step func()) {
		step() // first use grows the timer free list and the rings
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

func BenchmarkSleep(b *testing.B)    { benchSteps(b, sleeper) }
func BenchmarkPingPong(b *testing.B) { benchSteps(b, pingPong) }

// BenchmarkPostFire posts and fires one event at a time over a heap that
// already holds depth far-future events.
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

// TestSwitchNoAllocs pins the steady state of both switch shapes at zero
// allocations: a park that resumes itself, and a park that hands the baton
// to another proc through Run.
func TestSwitchNoAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		shape func(func(step func()))
	}{{"sleep", sleeper}, {"pingpong", pingPong}} {
		c.shape(func(step func()) {
			step()
			if n := testing.AllocsPerRun(1000, step); n != 0 {
				t.Errorf("%s: %v allocs per step, want 0", c.name, n)
			}
		})
	}
}

package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// orderScript runs one seeded random proc program and returns a digest of
// every step's (Now, EventsFired, actor name). All draws come from one
// generator shared by every proc and handler, so the first step that runs
// out of order changes every draw after it: the digest pins the complete
// interleaving of procs and handlers, not just the final clock.
//
// Every Wait, Get and bare park posts its own wake-up first, so a program
// cannot deadlock by construction: seed%8 == 5 adds a proc that parks
// forever to pin the DeadlockError text, and seed%4 == 3 runs in RunUntil
// slices so horizons land inside parks.
func orderScript(seed int64) uint64 {
	digest, _ := orderRun(seed)
	return digest
}

// orderRun is orderScript, also returning the engine's QueueHighWater.
func orderRun(seed int64) (digest uint64, highWater int) {
	e := NewEngine()
	h := fnv.New64a()
	step := func(who string) {
		fmt.Fprintf(h, "%d/%d/%s;", e.Now(), e.EventsFired(), who)
	}
	rnd := rand.New(rand.NewSource(seed)).Intn
	delay := func() Time {
		switch rnd(8) {
		case 0:
			return Time(rnd(3)) - 2 // -2..0: Sleep must treat these as Yield
		case 1:
			return Time(rnd(1000))
		}
		return Time(1 + rnd(4))
	}
	var (
		ws      [3]Waiter
		q       Queue[int]
		spawns  = 12 // procs the program may still create
		nchild  int
		program func(steps int) func(*Proc)
	)
	spawn := func(from string) {
		if spawns == 0 {
			return
		}
		spawns--
		nchild++
		e.Spawn(fmt.Sprintf("c%d<%s", nchild, from), program(4+rnd(8)))
	}
	program = func(steps int) func(*Proc) {
		return func(p *Proc) {
			me := p.Name()
			for ; steps > 0; steps-- {
				op := rnd(12)
				step(fmt.Sprintf("%s.%d", me, op))
				switch op {
				case 0, 1:
					p.Sleep(delay())
				case 2:
					p.Yield()
				case 3:
					w, all := &ws[rnd(len(ws))], rnd(2) == 0
					e.PostAfter(delay(), func() {
						step("h:wake<" + me)
						if all {
							w.WakeAll()
						} else {
							w.WakeOne()
						}
					})
					w.Wait(p, "order wait")
				case 4:
					ws[rnd(len(ws))].WakeOne()
				case 5:
					ws[rnd(len(ws))].WakeAll()
				case 6:
					q.Put(rnd(100))
				case 7:
					e.PostAfter(delay(), func() {
						step("h:put<" + me)
						q.Put(rnd(100))
					})
					step(fmt.Sprintf("%s got %d", me, q.Get(p, "order get")))
				case 8:
					spawn(me)
				case 9:
					e.PostAfter(delay(), func() {
						step("h:spawn<" + me)
						spawn("h")
					})
				case 10:
					e.PostAfter(delay(), func() { step("h:timer<" + me) })
				case 11:
					e.PostAfter(delay(), func() {
						step("h:ready<" + me)
						e.Ready(p)
						e.Ready(p) // idempotent
					})
					p.park("order park")
				}
			}
			step(me + " done")
		}
	}
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), program(24+rnd(16)))
	}
	if seed%8 == 5 {
		e.Spawn("stuck", func(p *Proc) {
			p.Sleep(delay())
			var never Waiter
			never.Wait(p, "never woken")
		})
	}
	if seed%4 == 3 {
		for i := 0; i < 1000 && e.LiveProcs() > 0; i++ {
			err := e.RunUntil(e.Now() + Time(1+rnd(40)))
			step(fmt.Sprintf("horizon %d live %v", e.LiveProcs(), err))
		}
	}
	step(fmt.Sprintf("end %v live %d", e.Run(), e.LiveProcs()))
	return h.Sum64(), e.QueueHighWater()
}

// orderDigests are orderScript's digests for seeds 0..23. The first tables
// were recorded on the engine whose procs were goroutines handed the baton
// over channels, and the coroutine engine reproduced them. When cancellable
// timers were retired, op 10 stopped holding and cancelling a handle and
// posts a plain event instead; these digests were re-recorded with that
// script on the last engine that still had cancellable timers, before any
// engine code changed. They are the oracle for any change to how the engine
// switches between procs and handlers: such a change must leave them
// untouched.
var orderDigests = [...]uint64{
	0x14ce8e65b8af9cb4, 0xd939ed46b6d246cd, 0xe7262ca3d2cc5263, 0x19644c1ee14f7c12,
	0xf5f5c83e08a92005, 0x1d024aeb1a5be2b7, 0xf44952d75d19f71f, 0xc62aab58ac3d4128,
	0x5a196b73b00f29ba, 0x1455b18ca866e153, 0xd8e2b53f4fe75f5f, 0xdcb922e1a64680b6,
	0xea4a0715c2cfac4a, 0x71760f75bf6dc1b1, 0x074c7966e1458737, 0x9ddf1b3ef10a3d66,
	0x879a30b9515bb023, 0x9149fea3f9b4506b, 0x5d0182035536bd90, 0xc08f1bab23633b67,
	0x9c2125dc834f3ded, 0xefbd0b6aa512bf1c, 0xc1d3518b119000e9, 0x2e98545dc143ed52,
}

func TestOrderOracle(t *testing.T) {
	for seed, want := range orderDigests {
		if got := orderScript(int64(seed)); got != want {
			t.Errorf("seed %d: digest %#016x, want %#016x", seed, got, want)
		}
	}
}

// orderHighWater is QueueHighWater after orderRun for seeds 0..23, recorded
// with every Sleep and Yield wake posted to the queue and re-recorded with
// orderDigests. A wake taken in place must still count toward the depth its
// push would have reached.
var orderHighWater = [...]int{
	30, 31, 24, 36, 34, 26, 26, 27, 21, 36, 23, 23,
	38, 36, 21, 24, 23, 29, 25, 28, 25, 31, 23, 38,
}

func TestOrderOracleQueueHighWater(t *testing.T) {
	for seed, want := range orderHighWater {
		if _, got := orderRun(int64(seed)); got != want {
			t.Errorf("seed %d: QueueHighWater %d, want %d", seed, got, want)
		}
	}
}

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
		handles []*Timer
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
					handles = append(handles, e.After(delay(), func() { step("h:timer<" + me) }))
					if rnd(2) == 0 {
						step(fmt.Sprintf("%s cancel %v", me, handles[rnd(len(handles))].Cancel()))
					}
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

// orderDigests are orderScript's digests for seeds 0..23, recorded on the
// engine whose procs were goroutines handed the baton over channels (the
// commit before procs became coroutines). They are the oracle for any
// change to how the engine switches between procs and handlers: such a
// change must leave them untouched.
var orderDigests = [...]uint64{
	0x4677f7747b901d93, 0x66206962244d6dd4, 0x2510f7a8ec1604e4, 0xae5274ae7cc35d12,
	0x54056675ad26fe89, 0xe65bff43fa39f7a1, 0xd39649b9ed563643, 0xdb7ecde0bff39da4,
	0x08b12e0c1bc71b06, 0xde3eb4f1afa45681, 0xb6bf720c55fbd219, 0xfcb9c50c47fe3fb8,
	0xea47f49bdc8d93ac, 0x548375e583220d4b, 0xa5b7c9077f41f36d, 0x2a78b561c32ffc4d,
	0x0d7bd3a6aed3d500, 0x1cf848246b8ec5de, 0xdaf782addd5047e5, 0xa577278379612cf5,
	0x83f37e62f9429861, 0x32efc9d2ab6203f2, 0x672d7113e099deeb, 0x5a64e7540198c516,
}

func TestOrderOracle(t *testing.T) {
	for seed, want := range orderDigests {
		if got := orderScript(int64(seed)); got != want {
			t.Errorf("seed %d: digest %#016x, want %#016x", seed, got, want)
		}
	}
}

// orderHighWater is QueueHighWater after orderRun for seeds 0..23, recorded
// with every Sleep and Yield wake posted to the queue. A wake taken in place
// must still count toward the depth its push would have reached.
var orderHighWater = [...]int{
	23, 26, 23, 30, 34, 25, 25, 30, 23, 27, 27, 25,
	30, 43, 21, 16, 26, 23, 25, 28, 24, 29, 24, 37,
}

func TestOrderOracleQueueHighWater(t *testing.T) {
	for seed, want := range orderHighWater {
		if _, got := orderRun(int64(seed)); got != want {
			t.Errorf("seed %d: QueueHighWater %d, want %d", seed, got, want)
		}
	}
}

package main

import (
	"fmt"

	"ib12x/internal/adi"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/mpi"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
)

const (
	chaosNodes   = 32
	bisectBytes  = 512 << 10
	bisectRounds = 56
	wildFanout   = 4  // destinations per rank in the wildcard phase
	wildPerDest  = 16 // messages per destination (below the credit pool)
	putSlot      = 32 << 10
	putEpochs    = 16
)

// chaosPlan is the fault schedule: a spine plane degraded to a quarter of
// its rate, a rail flap, bit flips on one node's payload descriptors and
// background chunk loss. Its shape is the same for every seed — which plane,
// node and rail are hit moves the virtual time of the slowest pair by a few
// percent, more than virt_us may move — and the seed drives the draws: which
// byte and bit each flip corrupts, and (chaosConfig) the reliability layer's
// backoff and probe jitter. Times are fixed so the faults land inside the
// body.
func chaosPlan(seed int64) *chaos.Plan {
	return chaos.Merge(fmt.Sprintf("bench-chaos-%d", seed),
		chaos.DegradedTrunk(200*sim.Microsecond, 6*sim.Millisecond, 0, 0.25),
		chaos.RailFlap(500*sim.Microsecond, 4*sim.Millisecond, 5, 2), // rail 0 never dies: every pair keeps a live rail
		chaos.BitFlipPlan(0, 9, 7, uint64(seed)*0x9e3779b97f4a7c15+1),
		chaos.LegacyEveryN(211),
	)
}

func chaosConfig(in *inputs) mpi.Config {
	return mpi.Config{
		Nodes: chaosNodes, QPsPerPort: 4, Policy: core.EPC,
		NodesPerSwitch: 4, Tiers: 3, SpinesPerPod: 2, Routing: fabric.RouteAdaptive,
		Integrity: adi.IntegrityVerify,
		// The completion deadline is generous: at the default 400 us the
		// oversubscribed tree trips it constantly, and hundreds of spurious
		// quarantines make the run chaotic in the seed.
		Reliability: &adi.ReliabilityConfig{Seed: in.seed, Deadline: 5 * sim.Millisecond},
		RegCache:    &regcache.Config{},
		Chaos:       chaosPlan(in.seed),
		Deadline:    10 * sim.Second,
	}
}

// chaosRouted drives the slow paths: bisection exchanges of real payloads
// across the degraded tree, a wildcard-matched small-message phase, and RMA
// puts, all verified against the seed patterns.
func chaosRouted(x *rank) {
	me, p := x.Rank(), x.Size()

	// Payloads are staged through the rank's own buffers: the registration
	// cache keys on buffer identity, and sending windows of the shared noise
	// field directly would make its hit pattern an accident of the offsets.
	partner := (me + p/2) % p
	out, buf := make([]byte, bisectBytes), make([]byte, bisectBytes)
	for r, n := 0, x.in.iters(bisectRounds); r < n; r++ {
		copy(out, x.in.payload(bisectBytes, me, partner, r, 0))
		x.sendrecv(partner, 0, out, partner, 0, buf, x.in.payload(bisectBytes, partner, me, r, 0))
		x.barrier()
	}

	// Wildcard phase: every rank sends wildPerDest small messages to each of
	// wildFanout destinations, then receives its share from any source with
	// any tag and checks each against what that (source, tag) must carry.
	wildLen := func(src, tag int) int { return 64 + (src*131+tag*29)%1985 }
	per := x.in.iters(wildPerDest)
	for k := 1; k <= wildFanout; k++ {
		dst := (me + k*k) % p
		for j := 0; j < per; j++ {
			tag := k*100 + j
			x.send(dst, tag, x.in.payload(wildLen(me, tag), me, dst, tag, 1))
		}
	}
	small := make([]byte, 2048)
	for i := 0; i < wildFanout*per; i++ {
		t0 := x.Time()
		st := x.Recv(mpi.AnySource, mpi.AnyTag, small)
		x.end("recv", st.Count, t0)
		x.okRecv("wildcard recv", st, small, x.in.payload(wildLen(st.Source, st.Tag), st.Source, me, st.Tag, 1))
	}
	x.barrier()

	// RMA phase: each epoch every rank puts one slot into wildFanout
	// targets' windows; after the fence each target checks the slots. Ranks
	// leave the fence at different virtual times, so a fast rank's next put
	// can land while a slow one still reads: epochs alternate between two
	// halves of the window (a rank is never two fences ahead).
	win := make([]byte, 2*p*putSlot)
	w := x.WinCreate(win, len(win))
	for e, n := 0, x.in.iters(putEpochs); e < n; e++ {
		half := e % 2 * p * putSlot
		for k := 1; k <= wildFanout; k++ {
			dst := (me + k*k) % p
			slot := out[(k-1)*putSlot:][:putSlot]
			copy(slot, x.in.payload(putSlot, me, dst, e, 2))
			t0 := x.Time()
			w.Put(dst, half+me*putSlot, slot)
			x.end("put", putSlot, t0)
		}
		t0 := x.Time()
		w.Fence()
		x.end("fence", 0, t0)
		for k := 1; k <= wildFanout; k++ {
			src := ((me-k*k)%p + p) % p
			x.okBytes("put slot", win[half+src*putSlot:][:putSlot], x.in.payload(putSlot, src, me, e, 2))
		}
	}
	w.Free()
}

// chaosConformance is chaos_routed's differential leg, outside any timed
// region: the oracle's seeded workload on the same fabric under the same
// plan must produce the digest of a fault-free flat run, with no invariant
// violated. It returns the failures found.
func chaosConformance(seed int64) []string {
	base, err := chaos.RunConformance(chaos.OracleConfig{
		Seed: seed, Policy: core.EvenStriping, Nodes: chaosNodes, ProcsPerNode: 1,
	})
	if err != nil {
		return []string{"fault-free baseline: " + err.Error()}
	}
	cfg := chaosConfig(&inputs{seed: seed})
	res, err := chaos.RunConformance(chaos.OracleConfig{
		Seed: seed, Policy: cfg.Policy, Plan: chaosPlan(seed),
		Reliability: cfg.Reliability, RegCache: cfg.RegCache, Integrity: cfg.Integrity,
		Nodes: cfg.Nodes, ProcsPerNode: 1, QPsPerPort: cfg.QPsPerPort,
		NodesPerSwitch: cfg.NodesPerSwitch, Tiers: cfg.Tiers, SpinesPerPod: cfg.SpinesPerPod,
		Routing: cfg.Routing,
	})
	if err != nil {
		return []string{"conformance under plan: " + err.Error()}
	}
	fails := append(append([]string(nil), base.Violations...), res.Violations...)
	if res.Digest != base.Digest {
		fails = append(fails, fmt.Sprintf("digest %#x under faults, %#x fault-free", res.Digest, base.Digest))
	}
	return fails
}

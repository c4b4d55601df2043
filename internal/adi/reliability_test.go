package adi

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// relEp returns a bare endpoint carrying only what backoffDelay reads.
func relEp(rank int, seed int64) *Endpoint {
	return &Endpoint{Rank: rank, rel: ReliabilityConfig{Seed: seed}.withDefaults()}
}

// TestBackoffDeterministic pins the backoff schedule to its inputs: equal
// (seed, rank, key, attempt) always yields the same delay, and the jittered
// delay stays inside [base<<attempt, 1.5*cap].
func TestBackoffDeterministic(t *testing.T) {
	base, max := 5*sim.Microsecond, 80*sim.Microsecond
	a, b := relEp(3, 42), relEp(3, 42)
	for attempt := 0; attempt < 8; attempt++ {
		for key := uint64(0); key < 16; key++ {
			da := a.backoffDelay(base, max, attempt, key)
			db := b.backoffDelay(base, max, attempt, key)
			if da != db {
				t.Fatalf("attempt %d key %d: replay diverged: %v vs %v", attempt, key, da, db)
			}
			lo := base << attempt
			if lo > max {
				lo = max
			}
			if da < lo || da >= lo+lo/2+1 {
				t.Errorf("attempt %d key %d: delay %v outside [%v, %v]", attempt, key, da, lo, lo+lo/2)
			}
		}
	}
}

// TestBackoffDecorrelates checks distinct seeds and ranks do not share one
// jitter schedule (a lockstep stampede after a mass flush would defeat the
// point of jitter).
func TestBackoffDecorrelates(t *testing.T) {
	base, max := 5*sim.Microsecond, 80*sim.Microsecond
	ref := relEp(0, 1)
	diffSeed, diffRank := false, false
	for attempt := 2; attempt < 6; attempt++ {
		for key := uint64(0); key < 32; key++ {
			d := ref.backoffDelay(base, max, attempt, key)
			if relEp(0, 2).backoffDelay(base, max, attempt, key) != d {
				diffSeed = true
			}
			if relEp(1, 1).backoffDelay(base, max, attempt, key) != d {
				diffRank = true
			}
		}
	}
	if !diffSeed {
		t.Error("seed never changed any backoff delay")
	}
	if !diffRank {
		t.Error("rank never changed any backoff delay")
	}
}

// relWorld builds a 2-node, 2-rail world with the reliability layer armed
// under the given config (engine not yet run).
func relWorld(cfg ReliabilityConfig) (*sim.Engine, *World) {
	eng := sim.NewEngine()
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.RoundRobin})
	w.EnableReliability(cfg)
	return eng, w
}

// TestHealthStateMachine drives the per-rail state machine directly: strikes
// accumulate through suspect to quarantine at the configured threshold, the
// quarantine removes the rail from the policy mask, further strikes are
// no-ops, and a successful probe reintegrates the rail and clears the mask.
func TestHealthStateMachine(t *testing.T) {
	_, w := relWorld(ReliabilityConfig{SuspectAfter: 3})
	ep := w.Endpoints[0]
	conn := ep.conn(1)
	h := &conn.relOf().health[1]

	ep.strike(conn, 1)
	if h.state != railSuspect || h.strikes != 1 {
		t.Fatalf("after 1 strike: state=%v strikes=%d, want suspect/1", h.state, h.strikes)
	}
	if ep.stats.RailSuspects != 1 {
		t.Errorf("RailSuspects = %d, want 1", ep.stats.RailSuspects)
	}
	ep.strike(conn, 1)
	if h.state != railSuspect || conn.sched.Dead.IsDown(1) {
		t.Fatalf("below threshold: state=%v dead=%v, want suspect/up", h.state, conn.sched.Dead.IsDown(1))
	}
	ep.strike(conn, 1)
	if h.state != railQuarantined {
		t.Fatalf("at threshold: state=%v, want quarantined", h.state)
	}
	if !conn.sched.Dead.IsDown(1) {
		t.Error("quarantine did not mark the rail down in the policy mask")
	}
	if ep.stats.RailQuarantines != 1 {
		t.Errorf("RailQuarantines = %d, want 1", ep.stats.RailQuarantines)
	}

	// Strikes against a quarantined rail change nothing.
	ep.strike(conn, 1)
	if h.state != railQuarantined || ep.stats.RailQuarantines != 1 {
		t.Errorf("strike on quarantined rail: state=%v quarantines=%d", h.state, ep.stats.RailQuarantines)
	}

	// A probe in flight that flushes returns to quarantine with a longer
	// backoff; one that completes reintegrates.
	h.state = railProbing
	ep.probeCompleted(conn, 1, false)
	if h.state != railQuarantined || h.attempt != 1 {
		t.Fatalf("failed probe: state=%v attempt=%d, want quarantined/1", h.state, h.attempt)
	}
	h.state = railProbing
	ep.probeCompleted(conn, 1, true)
	if h.state != railHealthy || h.strikes != 0 || h.attempt != 0 {
		t.Fatalf("successful probe: state=%v strikes=%d attempt=%d, want up/0/0", h.state, h.strikes, h.attempt)
	}
	if conn.sched.Dead.IsDown(1) {
		t.Error("reintegration left the rail marked down")
	}
	if ep.stats.RailReintegrations != 1 {
		t.Errorf("RailReintegrations = %d, want 1", ep.stats.RailReintegrations)
	}
}

// TestReliabilitySelfHealing is the end-to-end loop on a live world: a rail
// dies mid-traffic with nothing but its QP state flipped (SetRail under an
// armed reliability layer touches no masks), the endpoints quarantine it on
// their own evidence, probes bring it back after the operator revives the
// hardware, and every payload still arrives intact.
func TestReliabilitySelfHealing(t *testing.T) {
	eng, w := relWorld(ReliabilityConfig{
		Seed:          7,
		Deadline:      60 * sim.Microsecond,
		CheckInterval: 15 * sim.Microsecond,
		RetryBase:     2 * sim.Microsecond,
		RetryMax:      20 * sim.Microsecond,
		ProbeBase:     10 * sim.Microsecond,
		ProbeMax:      40 * sim.Microsecond,
	})
	eng.Post(80*sim.Microsecond, func() { w.SetRail(1, 1, false) })
	eng.Post(400*sim.Microsecond, func() { w.SetRail(1, 1, true) })

	const (
		msgs = 120
		n    = 4 << 10
	)
	payload := fill(n, 9)
	bufs := make([][]byte, msgs)
	w.Spawn("selfheal", func(ep *Endpoint) {
		switch ep.Rank {
		case 0:
			for i := 0; i < msgs; i++ {
				req := ep.PostSend(1, 7, CtxPt2Pt, core.Blocking, payload, n)
				ep.Wait(req)
				ep.Compute(5 * sim.Microsecond)
			}
		case 1:
			for i := 0; i < msgs; i++ {
				bufs[i] = make([]byte, n)
				req := ep.PostRecv(0, 7, CtxPt2Pt, bufs[i], n)
				ep.Wait(req)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var quarantines, reintegrations int64
	for _, ep := range w.Endpoints {
		quarantines += ep.stats.RailQuarantines
		reintegrations += ep.stats.RailReintegrations
	}
	if quarantines == 0 {
		t.Error("rail death went undetected: zero quarantines")
	}
	if reintegrations == 0 {
		t.Error("revived rail never reintegrated: zero reintegrations")
	}
	for i, b := range bufs {
		if !bytesEqual(b, payload) {
			t.Fatalf("message %d corrupted across the failure", i)
		}
	}
	if live := w.BufLive(); live != 0 {
		t.Errorf("payload leak: %d blocks live after quiesce", live)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIdleHealthTickAllocatesNothing runs an armed world whose only proc
// idles, so the health scan re-arms every CheckInterval with nothing to
// strike. A window of 100 intervals must allocate no more than a window of
// one: whatever RunUntil itself costs, a tick costs nothing.
func TestIdleHealthTickAllocatesNothing(t *testing.T) {
	eng, w := relWorld(ReliabilityConfig{})
	var never sim.Waiter
	eng.Spawn("idle", func(p *sim.Proc) { never.Wait(p, "idle") }) // keeps the ticks re-arming
	every := w.Reliability().CheckInterval
	window := func(n sim.Time) float64 {
		return testing.AllocsPerRun(10, func() { eng.RunUntil(eng.Now() + n*every) })
	}
	one := window(1)
	fired := eng.EventsFired()
	hundred := window(100)
	if ticks := eng.EventsFired() - fired; ticks < 11*100*uint64(len(w.Endpoints)) {
		t.Fatalf("%d events over 11 windows of 100 intervals: the health scan did not tick", ticks)
	}
	if hundred != one {
		t.Errorf("allocs per RunUntil window: %v over 100 intervals, %v over one; want equal", hundred, one)
	}
}

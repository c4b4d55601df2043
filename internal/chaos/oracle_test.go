package chaos

import (
	"strings"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/sim"
)

const oracleSeed = 42

// allPolicies is the full differential matrix: every built-in multi-rail
// policy must produce the same user-visible outcome.
var allPolicies = []core.Kind{
	core.Binding,
	core.RoundRobin,
	core.EvenStriping,
	core.WeightedStriping,
	core.EPC,
	core.Adaptive,
}

// faultPlans returns the plan set the matrix runs under. Times are aimed at
// the fault-free phase map (streams to ~600us, wildcards to ~630us,
// collectives to ~850us, one-sided to ~1.1ms); faulty runs stretch, which
// only moves the faults deeper into the workload.
func faultPlans() []*Plan {
	return []*Plan{
		NoFaults(),
		// A rail dies permanently while the p2p streams are in full flight:
		// in-flight stripes flush and retransmit on survivors.
		RailDeath(100*sim.Microsecond, 1, 2),
		// The whole send engine of node 0's port freezes for 200us: a QP
		// stall with no loss.
		StalledEngine(150*sim.Microsecond, 200*sim.Microsecond, 0, 0),
		// Node 1's link runs at 35% rate with 2us extra latency for most of
		// the run.
		DegradedLink(50*sim.Microsecond, 500*sim.Microsecond, 1, 0, 0.35, 2*sim.Microsecond),
		// A rail dies during the streams and comes back mid-collective:
		// rebinding in both directions.
		RailFlap(500*sim.Microsecond, 700*sim.Microsecond, 0, 1),
		// Everything at once: background chunk loss, a rail flap, and a
		// window of delayed completions.
		Merge("kitchen-sink",
			LegacyEveryN(97),
			RailFlap(120*sim.Microsecond, 300*sim.Microsecond, 1, 3),
			DelayedCompletions(200*sim.Microsecond, 400*sim.Microsecond, 0, 0, 3*sim.Microsecond),
		),
	}
}

// TestDifferentialOracle runs the seeded workload under every policy x every
// fault plan with no Reliability in the config: a plan with rail events arms
// the self-healing layer itself, with the default ReliabilityConfig. Every
// cell must meet the oracleMatrix contract.
func TestDifferentialOracle(t *testing.T) {
	oracleMatrix(t, nil)
}

// oracleMatrix runs every policy x every fault plan with the given
// reliability config and requires every cell to reproduce the fault-free
// user-visible digest with zero invariant violations: self-healing may only
// shrink the damage, never change the answer. Rail deaths must be
// quarantined on the endpoints' own evidence (SetRail flips only QP state),
// and the flap plan must see the revived rail reintegrated by a probe. The
// cells of one plan run concurrently on the harness pool — each conformance
// run owns a fresh engine and world, so parallel execution must (and this
// verifies it does) produce the same digests a serial loop would.
func oracleMatrix(t *testing.T, rel *adi.ReliabilityConfig) {
	t.Helper()
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: allPolicies[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range faultPlans() {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			// MapAll: a broken cell must not mask its siblings' failures.
			results, err := harness.MapAll(allPolicies, func(kind core.Kind) (*RunResult, error) {
				return RunConformance(OracleConfig{
					Seed:        oracleSeed,
					Policy:      kind,
					Plan:        plan,
					Reliability: rel,
				})
			})
			if err != nil {
				t.Fatalf("under %s: %v", plan.Name, err)
			}
			var quarantines, reintegrations int64
			for i, res := range results {
				for _, v := range res.Violations {
					t.Errorf("%v under %s: %s", allPolicies[i], plan.Name, v)
				}
				if res.Digest != base.Digest {
					t.Errorf("digest under %s: %s=%#x vs fault-free %#x",
						plan.Name, res.Policy, res.Digest, base.Digest)
				}
				quarantines += res.RailQuarantines
				reintegrations += res.RailReintegrations
			}
			switch plan.Name {
			case "rail-death-n1-r2":
				if quarantines == 0 {
					t.Error("permanent rail death never quarantined by any endpoint")
				}
			case "rail-flap-n0-r1":
				if quarantines == 0 || reintegrations == 0 {
					t.Errorf("flap: quarantines=%d reintegrations=%d, want both > 0",
						quarantines, reintegrations)
				}
			}
		})
	}
}

// TestConformanceSerialParallelIdentical pins the harness contract directly:
// the same matrix row run on one worker and on many workers must yield
// bit-identical digests, trace digests, and elapsed virtual times cell by
// cell.
func TestConformanceSerialParallelIdentical(t *testing.T) {
	plan := faultPlans()[5] // kitchen sink: the most event-heavy plan
	run := func(workers int) []*RunResult {
		res, err := harness.MapN(workers, allPolicies, func(kind core.Kind) (*RunResult, error) {
			return RunConformance(OracleConfig{Seed: oracleSeed, Policy: kind, Plan: plan})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Digest != p.Digest || s.TraceDigest != p.TraceDigest || s.Elapsed != p.Elapsed {
			t.Errorf("%s: serial/parallel diverge: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
				s.Policy, s.Digest, p.Digest, s.TraceDigest, p.TraceDigest, s.Elapsed, p.Elapsed)
		}
	}
}

// TestFaultPlansBite verifies the plans actually perturb the run rather
// than arming as no-ops: rail deaths force retransmissions on striping
// policies, chunk loss forces wire-level retransmits, and every fault plan
// shifts the protocol timeline away from the fault-free one.
func TestFaultPlansBite(t *testing.T) {
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range faultPlans()[1:] {
		res, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		if res.TraceDigest == base.TraceDigest {
			t.Errorf("%s: trace digest identical to fault-free run; plan did not bite", plan.Name)
		}
		if res.Elapsed <= base.Elapsed {
			t.Logf("%s: elapsed %v <= fault-free %v (allowed, but unusual)", plan.Name, res.Elapsed, base.Elapsed)
		}
	}

	death, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping,
		Plan: RailDeath(100*sim.Microsecond, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if death.RailRetransmits == 0 {
		t.Error("rail death: no WR retransmissions recorded; recovery path untested")
	}

	lossy, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping, Plan: LegacyEveryN(97)})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.ChunkRetransmits == 0 {
		t.Error("legacy-every-97: no chunk retransmits recorded; loss knob did not arm")
	}
}

// truncatingPolicy is the deliberately broken policy of the negative test:
// it silently drops the last 64 bytes of any multi-stripe plan, the kind of
// off-by-one a real striping bug produces.
type truncatingPolicy struct{ inner core.Policy }

func (p truncatingPolicy) Name() string { return "truncating" }
func (p truncatingPolicy) PickEager(c core.Class, size, rails int, st *core.ConnState) int {
	return p.inner.PickEager(c, size, rails, st)
}
func (p truncatingPolicy) PlanBulk(c core.Class, size, rails int, st *core.ConnState) []core.Stripe {
	pl := p.inner.PlanBulk(c, size, rails, st)
	if len(pl) > 1 && pl[len(pl)-1].N > 64 {
		out := append([]core.Stripe(nil), pl...)
		out[len(out)-1].N -= 64
		return out
	}
	return pl
}

// TestOracleCatchesBrokenPolicy proves the oracle has teeth: a policy that
// under-covers its bulk plans must produce payload violations, not a pass.
func TestOracleCatchesBrokenPolicy(t *testing.T) {
	res, err := RunConformance(OracleConfig{
		Seed:       oracleSeed,
		PolicyImpl: truncatingPolicy{inner: core.New(core.EvenStriping, 4096)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("truncating policy produced zero violations; the oracle is blind")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "payload corrupt") || strings.Contains(v, "window after put") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("expected a payload-corruption violation, got: %v", res.Violations)
	}
}

// TestChaosReproducible replays the same (seed, policy, plan) cell twice
// and requires bit-identical digests — the chaos harness must be as
// deterministic as the fault-free simulator.
func TestChaosReproducible(t *testing.T) {
	plans := []*Plan{
		faultPlans()[5], // kitchen sink
		Generate(7, sim.Millisecond, 2, 4, 1),
	}
	for _, plan := range plans {
		cfg := OracleConfig{Seed: oracleSeed, Policy: core.Adaptive, Plan: plan}
		a, err := RunConformance(cfg)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		b, err := RunConformance(cfg)
		if err != nil {
			t.Fatalf("%s replay: %v", plan.Name, err)
		}
		if a.Digest != b.Digest || a.TraceDigest != b.TraceDigest || a.Elapsed != b.Elapsed {
			t.Errorf("%s: replay diverged: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
				plan.Name, a.Digest, b.Digest, a.TraceDigest, b.TraceDigest, a.Elapsed, b.Elapsed)
		}
	}
}

// TestGenerateDeterministic pins Generate to its seed.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(99, sim.Millisecond, 4, 8, 2)
	b := Generate(99, sim.Millisecond, 4, 8, 2)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event count diverged: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Errorf("event %d diverged: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if len(a.Events) == 0 {
		t.Error("generated plan is empty")
	}
}

// TestWatchdogFires bounds a healthy run with an impossible deadline and
// expects the virtual-time watchdog to report the stuck ranks instead of
// simulating forever.
func TestWatchdogFires(t *testing.T) {
	_, err := RunConformance(OracleConfig{
		Seed:     oracleSeed,
		Policy:   core.EvenStriping,
		Deadline: 20 * sim.Microsecond,
	})
	if err == nil {
		t.Fatal("expected a watchdog error at a 20us deadline")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("expected a watchdog error, got: %v", err)
	}
}

// TestGeneratedPlansConverge sweeps seeded random plans across the policy
// matrix: whatever Generate throws at the fabric, every policy must still
// deliver the same answer.
func TestGeneratedPlansConverge(t *testing.T) {
	type cell struct {
		kind core.Kind
		plan *Plan
	}
	var cells []cell
	for seed := int64(1); seed <= 3; seed++ {
		plan := Generate(seed, 900*sim.Microsecond, 2, 4, 1)
		for _, kind := range allPolicies {
			cells = append(cells, cell{kind, plan})
		}
	}
	results, err := harness.Map(cells, func(c cell) (*RunResult, error) {
		return RunConformance(OracleConfig{Seed: oracleSeed, Policy: c.kind, Plan: c.plan})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		for _, v := range res.Violations {
			t.Errorf("%v under %s: %s", cells[i].kind, cells[i].plan.Name, v)
		}
		ref := results[i-i%len(allPolicies)] // first cell of this plan's row
		if res.Digest != ref.Digest {
			t.Errorf("digest split under %s: %s=%#x vs %s=%#x",
				cells[i].plan.Name, ref.Policy, ref.Digest, res.Policy, res.Digest)
		}
	}
}

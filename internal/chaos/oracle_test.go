package chaos

import (
	"reflect"
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
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

// faultPlans returns the plans every feature of the oracle array runs
// under. Times are aimed at the fault-free phase map (streams to ~600us,
// wildcards to ~630us, collectives to ~850us, one-sided to ~1.1ms); faulty
// runs stretch, which only moves the faults deeper into the workload.
func faultPlans() []oraclePlan {
	return []oraclePlan{
		{Plan: NoFaults()},
		// A rail dies permanently while the p2p streams are in full flight:
		// in-flight stripes flush and retransmit on survivors.
		{Plan: RailDeath(100*sim.Microsecond, 1, 2), want: wantQuarantine},
		// The whole send engine of node 0's port freezes for 200us: a QP
		// stall with no loss.
		{Plan: StalledEngine(150*sim.Microsecond, 200*sim.Microsecond, 0, 0)},
		// Node 1's link runs at 35% rate with 2us extra latency for most of
		// the run.
		{Plan: DegradedLink(50*sim.Microsecond, 500*sim.Microsecond, 1, 0, 0.35, 2*sim.Microsecond)},
		// A rail dies during the streams and comes back mid-collective:
		// rebinding in both directions.
		{Plan: RailFlap(500*sim.Microsecond, 700*sim.Microsecond, 0, 1), want: wantReintegrate},
		// Everything at once: background chunk loss, a rail flap, and a
		// window of delayed completions.
		{Plan: Merge("kitchen-sink",
			LegacyEveryN(97),
			RailFlap(120*sim.Microsecond, 300*sim.Microsecond, 1, 3),
			DelayedCompletions(200*sim.Microsecond, 400*sim.Microsecond, 0, 0, 3*sim.Microsecond),
		)},
	}
}

// TestFaultPlansBite verifies the plans actually perturb the run rather
// than arming as no-ops: rail deaths force retransmissions on striping
// policies, chunk loss forces wire-level retransmits, and every fault plan
// shifts the protocol timeline away from the fault-free one.
func TestFaultPlansBite(t *testing.T) {
	base := conform(t, mpi.Config{Policy: core.EvenStriping})
	for _, op := range faultPlans()[1:] {
		res := conform(t, mpi.Config{Policy: core.EvenStriping, Chaos: op.Plan})
		if res.TraceDigest == base.TraceDigest {
			t.Errorf("%s: trace digest identical to fault-free run; plan did not bite", op.Name)
		}
		if res.Elapsed <= base.Elapsed {
			t.Logf("%s: elapsed %v <= fault-free %v (allowed, but unusual)", op.Name, res.Elapsed, base.Elapsed)
		}
		if op.want == wantQuarantine && res.RailRetransmits == 0 {
			t.Error("rail death: no WR retransmissions recorded; recovery path untested")
		}
	}

	lossy := conform(t, mpi.Config{Policy: core.EvenStriping, Chaos: LegacyEveryN(97)})
	if lossy.ChunkRetransmits == 0 {
		t.Error("legacy-every-97: no chunk retransmits recorded; loss knob did not arm")
	}
}

// conform runs the oracle at oracleSeed on one config, failing the test on
// a run error.
func conform(t *testing.T, cfg mpi.Config) *RunResult {
	t.Helper()
	res, err := Conform(oracleSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// conformant is conform plus the contract every cell of the oracle array
// meets.
func conformant(t *testing.T, cfg mpi.Config) *RunResult {
	t.Helper()
	res := conform(t, cfg)
	contract(t, res.Plan, cfg, res, conform(t, mpi.Config{Policy: cfg.Policy}).Digest)
	return res
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
	res := conform(t, mpi.Config{
		PolicyImpl: truncatingPolicy{inner: core.New(core.EvenStriping, 4096)},
	})
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

// TestChaosReproducible replays a seeded random plan the array does not
// run and requires a bit-identical result — the chaos harness must be as
// deterministic as the fault-free simulator. (The serial/parallel twins
// replay the array's kitchen-sink and corrupt-sink rows the same way.)
func TestChaosReproducible(t *testing.T) {
	cfg := mpi.Config{Policy: core.Adaptive, Chaos: Generate(7, sim.Millisecond, 2, 4, 1)}
	if a, b := conform(t, cfg), conform(t, cfg); !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged:\n%+v\n%+v", a, b)
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
// simulating forever. A world shape no layer accepts fails the same way, as
// an error naming the field, before the oracle sizes its script from it.
func TestWatchdogFires(t *testing.T) {
	for _, tc := range []struct {
		want string
		run  func() (*RunResult, error)
	}{
		{"watchdog", func() (*RunResult, error) {
			return Conform(oracleSeed, mpi.Config{Policy: core.EvenStriping, Deadline: 20 * sim.Microsecond})
		}},
		{"Nodes", func() (*RunResult, error) { return RunConformance(OracleConfig{Seed: oracleSeed, Nodes: -1}) }},
		{"ProcsPerNode", func() (*RunResult, error) { return RunConformance(OracleConfig{Seed: oracleSeed, ProcsPerNode: -2}) }},
	} {
		t.Run(tc.want, func(t *testing.T) {
			_, err := tc.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

package chaos

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/harness"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// The trunked-fabric oracle cells: 4 nodes × 1 proc (every pair crosses the
// fabric, which is the point), on a two-level 4:1 tree, a three-tier 2:1
// tree and a two-group dragonfly. Trunks run at a quarter of the link rate
// on the trees, so the leaf ratio is 1·link : 1·(link/4) = 4:1 under the
// single spine and 1·link : 2·(link/4) = 2:1 under two.
type routedShape struct {
	name string
	set  func(*OracleConfig)
}

func routedShapes() []routedShape {
	link := model.Default().LinkRawRate
	return []routedShape{
		{"tree3-2to1", func(c *OracleConfig) {
			c.NodesPerSwitch = 1
			c.Tiers = 3
			c.SpinesPerPod = 2
			c.TrunkRate = link / 4
		}},
		{"dragonfly", func(c *OracleConfig) {
			c.Dragonfly = topo.Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
			c.TrunkRate = link / 2
		}},
		{"two-level-4to1", func(c *OracleConfig) {
			c.NodesPerSwitch = 1
			c.TrunkRate = link / 4
		}},
	}
}

var bothRoutings = []fabric.Routing{fabric.RouteStatic, fabric.RouteAdaptive}

// routedPlans is the chaos matrix for routing cells: the standard fault
// plans plus the trunk-plane degrade that only trunked fabrics can feel.
func routedPlans() []*Plan {
	return append(faultPlans(),
		DegradedTrunk(50*sim.Microsecond, 500*sim.Microsecond, 0, 0.25))
}

// TestDifferentialOracleRouting runs the seeded workload over the full
// 6-policy × fault-plan chaos matrix on a two-level 4:1 tree, a three-tier
// 2:1 tree and a dragonfly group, under both static and adaptive routing
// (the same thing under the two-level tree's single spine), and requires
// every cell's payload digest to be byte-identical to the flat-fabric
// baseline of the same plan. Routing moves bytes in time — extra hops,
// contention, re-selected lanes — never in content or matching order, so
// the user-visible bytes must not change even while trunks degrade and
// rails die mid-run. Zero violations also pins World.BufLive()==0.
func TestDifferentialOracleRouting(t *testing.T) {
	type cell struct {
		shape   routedShape
		routing fabric.Routing
		policy  core.Kind
	}
	var cells []cell
	for _, shape := range routedShapes() {
		for _, routing := range bothRoutings {
			for _, kind := range allPolicies {
				cells = append(cells, cell{shape, routing, kind})
			}
		}
	}
	for _, plan := range routedPlans() {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			ref, err := RunConformance(OracleConfig{
				Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan,
				Nodes: 4, ProcsPerNode: 1,
			})
			if err != nil {
				t.Fatalf("flat baseline under %s: %v", plan.Name, err)
			}
			results, err := harness.Map(cells, func(c cell) (*RunResult, error) {
				cfg := OracleConfig{
					Seed: oracleSeed, Policy: c.policy, Plan: plan,
					Nodes: 4, ProcsPerNode: 1, Routing: c.routing,
				}
				c.shape.set(&cfg)
				return RunConformance(cfg)
			})
			if err != nil {
				t.Fatalf("routing matrix under %s: %v", plan.Name, err)
			}
			for i, res := range results {
				c := cells[i]
				for _, v := range res.Violations {
					t.Errorf("%s/%v %v under %s: %s", c.shape.name, c.routing, c.policy, plan.Name, v)
				}
				if res.Digest != ref.Digest {
					t.Errorf("digest split under %s: flat=%#x vs %s/%v %v=%#x",
						plan.Name, ref.Digest, c.shape.name, c.routing, c.policy, res.Digest)
				}
			}
		})
	}
}

// TestRoutingSerialParallelIdentical pins the harness contract on routed
// fabrics: the adaptive three-tier matrix row run on one worker and on
// many must yield bit-identical digests, trace digests, and elapsed
// virtual times cell by cell.
func TestRoutingSerialParallelIdentical(t *testing.T) {
	plan := routedPlans()[5] // kitchen sink: the most event-heavy plan
	shape := routedShapes()[0]
	run := func(workers int) []*RunResult {
		res, err := harness.MapN(workers, allPolicies, func(kind core.Kind) (*RunResult, error) {
			cfg := OracleConfig{
				Seed: oracleSeed, Policy: kind, Plan: plan,
				Nodes: 4, ProcsPerNode: 1, Routing: fabric.RouteAdaptive,
			}
			shape.set(&cfg)
			return RunConformance(cfg)
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

// TestAdaptiveBeatsStaticUnderTrunkDegrade is the system-level SetRate ×
// adaptive regression (the fabric-level tie-break is pinned in
// internal/fabric): with one spine plane of a 2:1 three-tier tree
// degraded to a tenth of its rate from t=0, static D-mod-K keeps hashing
// half the flows onto the slow plane while adaptive routes around it —
// fewer bytes on the degraded plane and a faster finish.
func TestAdaptiveBeatsStaticUnderTrunkDegrade(t *testing.T) {
	link := model.Default().LinkRawRate
	run := func(routing fabric.Routing) (sim.Time, int64, int64) {
		rep, err := mpi.Run(mpi.Config{
			Nodes: 4, ProcsPerNode: 1, QPsPerPort: 4, Policy: core.EPC,
			NodesPerSwitch: 1, Tiers: 3, SpinesPerPod: 2, TrunkRate: link / 4,
			Routing: routing,
			Chaos:   DegradedTrunk(0, sim.Second, 0, 0.1),
		}, func(c *mpi.Comm) {
			// Cross-pod shift exchange: every byte rides the trunks.
			peer := (c.Rank() + c.Size()/2) % c.Size()
			for it := 0; it < 4; it++ {
				c.SendrecvN(peer, 0, nil, 1<<20, peer, 0, nil, 1<<20)
			}
		})
		if err != nil {
			t.Fatalf("routing=%v: %v", routing, err)
		}
		_, slow := rep.World.Cluster.Net.PlaneStats(0)
		_, fast := rep.World.Cluster.Net.PlaneStats(1)
		return rep.Elapsed, slow, fast
	}
	statElapsed, statSlow, _ := run(fabric.RouteStatic)
	adptElapsed, adptSlow, adptFast := run(fabric.RouteAdaptive)
	if adptSlow >= statSlow {
		t.Errorf("adaptive booked %d bytes on the degraded plane, static %d — no avoidance", adptSlow, statSlow)
	}
	if adptElapsed >= statElapsed {
		t.Errorf("adaptive elapsed %v not better than static %v under a degraded plane", adptElapsed, statElapsed)
	}
	if adptFast == 0 {
		t.Errorf("adaptive booked nothing at all on the healthy plane")
	}
}

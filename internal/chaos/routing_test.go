package chaos

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/fabric"
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
	set  func(*mpi.Config)
}

func routedShapes() []routedShape {
	link := model.Default().LinkRawRate
	return []routedShape{
		{"tree3-2to1", func(c *mpi.Config) {
			c.NodesPerSwitch = 1
			c.Tiers = 3
			c.SpinesPerPod = 2
			c.TrunkRate = link / 4
		}},
		{"dragonfly", func(c *mpi.Config) {
			c.Dragonfly = topo.Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
			c.TrunkRate = link / 2
		}},
		{"two-level-4to1", func(c *mpi.Config) {
			c.NodesPerSwitch = 1
			c.TrunkRate = link / 4
		}},
	}
}

// routedPlans are the plans the array also runs on the trunked fabrics:
// the standard fault plans plus the trunk-plane degrade that only trunked
// fabrics can feel.
func routedPlans() []oraclePlan {
	ps := append(faultPlans(), oraclePlan{Plan: DegradedTrunk(50*sim.Microsecond, 500*sim.Microsecond, 0, 0.25), trunk: true})
	for i := range ps {
		ps[i].routed = true
	}
	return ps
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

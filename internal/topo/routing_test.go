package topo

import (
	"math"
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/model"
)

func TestSpecValidateFabricShapes(t *testing.T) {
	base := Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}
	good := []func(*Spec){
		func(s *Spec) { s.Tiers = 3; s.NodesPerSwitch = 2; s.SpinesPerPod = 2 },
		func(s *Spec) { s.Tiers = 2; s.NodesPerSwitch = 2 },
		func(s *Spec) { s.NodesPerSwitch = 2; s.SpinesPerPod = 2 }, // two levels, two spines
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 4, GlobalLinks: 1} },
		func(s *Spec) {
			s.NodesPerSwitch = 2
			s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
		},
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 1, RoutersPerGroup: 8} }, // local-only group
	}
	for i, set := range good {
		s := base
		set(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Tiers = 1 },
		func(s *Spec) { s.Tiers = 4 },
		func(s *Spec) { s.Tiers = 2 }, // no NodesPerSwitch
		func(s *Spec) { s.NodesPerSwitch = 2; s.SpinesPerPod = -1 },
		func(s *Spec) { s.Tiers = 3 },                       // no NodesPerSwitch
		func(s *Spec) { s.Tiers = 3; s.NodesPerSwitch = 2 }, // no SpinesPerPod
		func(s *Spec) {
			s.Tiers = 3
			s.NodesPerSwitch = 2
			s.SpinesPerPod = 2
			s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 1}
		}, // mutually exclusive
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2} },                                     // no routers
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 4} },                 // no global links
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 1} }, // capacity 4 < 8 nodes
	}
	for i, set := range bad {
		s := base
		set(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d]: Validate accepted %+v", i, s)
		}
	}
}

// TestSpecValidateTrunkRate: a trunk rate the fabric cannot serve is an
// error at Validate, never an infinitely fast trunk or a constructor panic.
func TestSpecValidateTrunkRate(t *testing.T) {
	link := model.Default().LinkRawRate
	for _, c := range []struct {
		name string
		rate float64
		ok   bool
	}{
		{"zero means the link rate", 0, true},
		{"1:1", link, true},
		{"4:1", link / 4, true},
		{"negative", -link, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	} {
		for _, shape := range []Spec{
			{}, // single switch: the rate is unused but still checked
			{NodesPerSwitch: 2},
			{Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2},
			{Dragonfly: Dragonfly{Groups: 2, RoutersPerGroup: 4, GlobalLinks: 1}},
		} {
			s := shape
			s.Nodes, s.ProcsPerNode, s.HCAsPerNode, s.PortsPerHCA, s.QPsPerPort = 8, 1, 1, 1, 1
			s.TrunkRate = c.rate
			if err := s.Validate(); (err == nil) != c.ok {
				t.Errorf("%s on %+v: Validate = %v, want ok=%v", c.name, shape, err, c.ok)
			}
		}
	}
}

// TestShardPlanFabricShapes is the property test for leaf/pod/group sharding:
// for every shape and requested shard count, every node maps to exactly
// one shard, nodes of the same unit never split across shards, shard
// ids are contiguous from 0 and non-decreasing in node order, and the
// effective count is clamped to [1, units].
func TestShardPlanFabricShapes(t *testing.T) {
	shapes := []struct {
		name  string
		spec  Spec
		units int
	}{
		{"two-level-8n", Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			NodesPerSwitch: 2}, 4}, // a leaf is the unit
		{"two-level-ragged", Spec{Nodes: 7, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 2, NodesPerSwitch: 3, SpinesPerPod: 2}, 3},
		{"tree3-16n", Spec{Nodes: 16, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2}, 4}, // 8 leaves / 2 per pod → 4 pods
		{"tree3-ragged", Spec{Nodes: 10, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2}, 3}, // 5 leaves → 3 pods
		{"dragonfly-12n", Spec{Nodes: 12, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			NodesPerSwitch: 2, Dragonfly: Dragonfly{Groups: 3, RoutersPerGroup: 2, GlobalLinks: 1}}, 3},
		{"dragonfly-ragged", Spec{Nodes: 5, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Dragonfly: Dragonfly{Groups: 3, RoutersPerGroup: 2, GlobalLinks: 1}}, 3},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if err := sh.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := sh.spec.ShardUnits(); got != sh.units {
				t.Fatalf("ShardUnits = %d, want %d", got, sh.units)
			}
			unitSize := sh.spec.shardUnitSize()
			for req := -1; req <= sh.units+3; req++ {
				plan, eff := sh.spec.ShardPlan(req)
				if len(plan) != sh.spec.Nodes {
					t.Fatalf("req=%d: plan covers %d nodes, want %d", req, len(plan), sh.spec.Nodes)
				}
				if eff < 1 || eff > sh.units {
					t.Fatalf("req=%d: effective count %d outside [1,%d]", req, eff, sh.units)
				}
				// Contiguous blocks of ceil(units/eff) units can use fewer
				// shards than requested (4 units over 3 shards = two blocks
				// of 2), so eff may undershoot req but never exceed it.
				if req >= 1 && eff > req {
					t.Fatalf("req=%d yielded %d shards", req, eff)
				}
				seen := make([]bool, eff)
				prev := 0
				for n, s := range plan {
					if s < 0 || s >= eff {
						t.Fatalf("req=%d: node %d on shard %d of %d", req, n, s, eff)
					}
					if s != prev && s != prev+1 {
						t.Fatalf("req=%d: shard ids not contiguous at node %d (%d after %d)", req, n, s, prev)
					}
					if s != plan[n/unitSize*unitSize] {
						t.Fatalf("req=%d: node %d splits its leaf/pod/group across shards", req, n)
					}
					seen[s] = true
					prev = s
				}
				for s, ok := range seen {
					if !ok {
						t.Fatalf("req=%d: shard %d owns no nodes", req, s)
					}
				}
			}
		})
	}
}

func TestBuildFabricShapes(t *testing.T) {
	m := model.Default()
	base := Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}
	for _, c := range []struct {
		name   string
		set    func(*Spec)
		planes int
		cross  bool // nodes 1 and 2 under different switches
	}{
		{"single switch", func(s *Spec) {}, 0, false},
		{"two-level", func(s *Spec) { s.NodesPerSwitch = 2 }, 1, true},
		{"two-level, Tiers spelled out", func(s *Spec) { s.Tiers, s.NodesPerSwitch, s.SpinesPerPod = 2, 2, 3 }, 3, true},
		{"three-tier", func(s *Spec) {
			s.Tiers, s.NodesPerSwitch, s.SpinesPerPod, s.Routing = 3, 2, 2, fabric.RouteAdaptive
		}, 2, true},
		{"dragonfly", func(s *Spec) {
			s.NodesPerSwitch, s.Dragonfly = 2, Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
		}, 2, true},
	} {
		s := base
		c.set(&s)
		net := Build(s, m).Net
		if net.Planes() != c.planes {
			t.Errorf("%s: Planes = %d, want %d", c.name, net.Planes(), c.planes)
		}
		if net.CrossSwitch(0, 1) || net.CrossSwitch(1, 2) != c.cross {
			t.Errorf("%s: switch assignment wrong", c.name)
		}
	}
}

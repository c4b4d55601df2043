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

// TestFabricShapesFullAndRagged: every routed shape validates and builds
// with its last leaf, pod or group full or only partly populated, and the
// first and last node sit under different switches.
func TestFabricShapesFullAndRagged(t *testing.T) {
	shapes := []struct {
		name string
		spec Spec
	}{
		{"two-level-8n", Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			NodesPerSwitch: 2}},
		{"two-level-ragged", Spec{Nodes: 7, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 2, NodesPerSwitch: 3, SpinesPerPod: 2}},
		{"tree3-16n", Spec{Nodes: 16, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2}}, // 8 leaves / 2 per pod → 4 pods
		{"tree3-ragged", Spec{Nodes: 10, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2}}, // 5 leaves → 3 pods
		{"dragonfly-12n", Spec{Nodes: 12, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			NodesPerSwitch: 2, Dragonfly: Dragonfly{Groups: 3, RoutersPerGroup: 2, GlobalLinks: 1}}},
		{"dragonfly-ragged", Spec{Nodes: 5, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
			Dragonfly: Dragonfly{Groups: 3, RoutersPerGroup: 2, GlobalLinks: 1}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if err := sh.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			c := Build(sh.spec, model.Default())
			if len(c.Nodes) != sh.spec.Nodes || c.Net.Planes() == 0 {
				t.Fatalf("built %d nodes over %d planes", len(c.Nodes), c.Net.Planes())
			}
			if !c.Net.CrossSwitch(0, sh.spec.Nodes-1) {
				t.Error("first and last node share a switch")
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

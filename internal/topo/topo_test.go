package topo

import (
	"testing"

	"ib12x/internal/model"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Nodes: 2, ProcsPerNode: 4, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{Nodes: 0, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1},
		{Nodes: 1, ProcsPerNode: 0, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1},
		{Nodes: 1, ProcsPerNode: 1, HCAsPerNode: 0, PortsPerHCA: 1, QPsPerPort: 1},
		{Nodes: 1, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 3, QPsPerPort: 1},
		{Nodes: 1, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 0},
		{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 17}, // 68 rails > core.MaxRails
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestSpecDerived(t *testing.T) {
	s := Spec{Nodes: 2, ProcsPerNode: 4, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 4}
	if s.Size() != 8 {
		t.Errorf("Size = %d, want 8", s.Size())
	}
	if s.Rails() != 16 {
		t.Errorf("Rails = %d, want 16 (2 HCAs × 2 ports × 4 QPs)", s.Rails())
	}
}

func TestBuildShape(t *testing.T) {
	m := model.Default()
	c := Build(Spec{Nodes: 2, ProcsPerNode: 4, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 1}, m)
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		if len(n.HCAs) != 2 {
			t.Errorf("node %d HCAs = %d, want 2", n.ID, len(n.HCAs))
		}
		if got := len(n.Ports()); got != 4 {
			t.Errorf("node %d ports = %d, want 4", n.ID, got)
		}
		if n.Bus == nil {
			t.Errorf("node %d has no GX+ bus", n.ID)
		}
		// All HCAs of a node share the node's bus.
		for _, h := range n.HCAs {
			if h.Bus != n.Bus {
				t.Errorf("node %d HCA %s not on the node bus", n.ID, h.Name)
			}
		}
	}
}

func TestRankPlacement(t *testing.T) {
	m := model.Default()
	c := Build(Spec{Nodes: 2, ProcsPerNode: 4, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}, m)
	if c.Size() != 8 {
		t.Fatalf("Size = %d, want 8", c.Size())
	}
	for rank, wantNode := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if got := c.NodeOf(rank); got != wantNode {
			t.Errorf("NodeOf(%d) = %d, want %d", rank, got, wantNode)
		}
	}
	if !c.SameNode(0, 3) || c.SameNode(3, 4) {
		t.Error("SameNode misclassifies")
	}
	if len(c.PortsOf(5)) != 1 {
		t.Errorf("PortsOf(5) = %d ports, want 1", len(c.PortsOf(5)))
	}
}

func TestBuildPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build must panic on invalid spec")
		}
	}()
	Build(Spec{}, model.Default())
}

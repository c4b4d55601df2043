package adi

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

func TestWorldRailWiring(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 2, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 3}
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC})
	wantRails := spec.Rails() // 2×2×3 = 12
	if wantRails != 12 {
		t.Fatalf("spec.Rails() = %d", wantRails)
	}
	for i, ep := range w.Endpoints {
		for j := range w.Endpoints {
			conn := ep.Conn(j)
			switch {
			case i == j:
				if conn != nil {
					t.Errorf("rank %d has a self connection", i)
				}
			case w.Cluster.SameNode(i, j):
				if conn.Rails() != 0 || conn.sh == nil {
					t.Errorf("conn %d->%d: intra-node must use shmem", i, j)
				}
			default:
				if conn.Rails() != wantRails {
					t.Errorf("conn %d->%d: %d rails, want %d", i, j, conn.Rails(), wantRails)
				}
				if conn.credit.avail != model.Default().EagerCredits {
					t.Errorf("conn %d->%d: credits = %d", i, j, conn.credit.avail)
				}
			}
		}
	}
}

func TestWorldRailsSpreadOverPorts(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 2}
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC})
	conn := w.Endpoints[0].Conn(1)
	ports := map[string]int{}
	for _, qp := range conn.rails {
		ports[qp.Port.Name]++
	}
	if len(ports) != 4 {
		t.Fatalf("rails on %d distinct ports, want 4 (2 HCAs × 2 ports): %v", len(ports), ports)
	}
	for name, n := range ports {
		if n != 2 {
			t.Errorf("port %s carries %d rails, want 2", name, n)
		}
	}
}

func TestWorldBindRailApplied(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4}
	w := NewWorld(eng, model.Default(), spec, Options{
		Policy:   core.Binding,
		BindRail: func(rank, peer int) int { return (rank + peer) % 4 },
	})
	if got := w.Endpoints[0].Conn(1).sched.Bound; got != 1 {
		t.Errorf("bound rail = %d, want 1", got)
	}
	if got := w.Endpoints[1].Conn(0).sched.Bound; got != 1 {
		t.Errorf("reverse bound rail = %d, want 1", got)
	}
}

func TestWorldAttachTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, model.Default(), topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}, Options{})
	eng.Spawn("r0", func(p *sim.Proc) {
		w.Endpoints[0].Attach(p)
		defer func() {
			if recover() == nil {
				t.Error("second Attach must panic")
			}
		}()
		w.Endpoints[0].Attach(p)
	})
	eng.Spawn("r1", func(p *sim.Proc) { w.Endpoints[1].Attach(p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

package adi

import (
	"slices"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
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

// TestWorldBindRailApplied: a binding world's first traffic between a pair,
// an eager message each way and then a rendezvous, builds and uses rail 0
// on both halves.
func TestWorldBindRailApplied(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4}
	rec := trace.NewRecorder(64)
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.Binding, Trace: rec})
	const n = 256 << 10
	var afterEager [2][]int
	w.Spawn("t", func(ep *Endpoint) {
		peer := 1 - ep.Rank
		ep.Wait(ep.PostSend(peer, 0, CtxPt2Pt, core.NonBlocking, nil, 0))
		ep.Wait(ep.PostRecv(peer, 0, CtxPt2Pt, nil, 0))
		afterEager[ep.Rank] = builtRails(ep.conns[peer])
		if ep.Rank == 0 {
			ep.Wait(ep.PostSend(1, 1, CtxPt2Pt, core.Blocking, nil, n))
		} else {
			ep.Wait(ep.PostRecv(0, 1, CtxPt2Pt, nil, n))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for side, b := range afterEager {
		if !slices.Equal(b, []int{0}) {
			t.Errorf("half %d after an eager message each way: rails %v built, want [0]", side, b)
		}
	}
	stripes := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindStripeWrite {
			stripes++
			if e.Rail != 0 {
				t.Errorf("rendezvous stripe on rail %d, want 0", e.Rail)
			}
		}
	}
	if stripes != 1 {
		t.Errorf("%d rendezvous stripes, want 1", stripes)
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

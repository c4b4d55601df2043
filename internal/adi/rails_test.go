package adi

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// Rails on first post (DESIGN.md §19): connect reserves a pair's QPNs and
// its flows' route-key ordinals, and a rail's QP pair is built the first
// time something posts on it.

// builtRails lists the rails of c that have a QP.
func builtRails(c *Conn) []int {
	var b []int
	for r, qp := range c.rails {
		if qp != nil {
			b = append(b, r)
		}
	}
	return b
}

// TestRailsOnFirstPost: a pair whose only traffic is one 0-byte eager
// message (a drain barrier's) has one rail's QP pair built, the rail the
// scheduler picked, on both halves; a later rendezvous on that pair builds
// the rest.
func TestRailsOnFirstPost(t *testing.T) {
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 2, QPsPerPort: 2}
	const n = 256 << 10
	for _, tc := range []struct {
		name string
		opt  Options
		rail int // the rail a fresh connection's first eager message takes
	}{
		{"EPC", Options{Policy: core.EPC}, 0}, // round robin from rail 0
		{"binding", Options{Policy: core.Binding}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			w := NewWorld(eng, model.Default(), spec, tc.opt)
			got := make([]byte, n)
			var afterEager [2][]int
			w.Spawn("t", func(ep *Endpoint) {
				if ep.Rank == 1 {
					ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 0))
					ep.Wait(ep.PostRecv(0, 1, CtxPt2Pt, got, n))
					return
				}
				ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Collective, nil, 0))
				ep.Compute(sim.Millisecond) // the message lands; nothing else flies
				afterEager = [2][]int{builtRails(ep.conns[1]), builtRails(w.Endpoints[1].conns[0])}
				ep.Wait(ep.PostSend(1, 1, CtxPt2Pt, core.Blocking, fill(n, 7), n))
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			for side, b := range afterEager {
				if !slices.Equal(b, []int{tc.rail}) {
					t.Errorf("half %d after one 0-byte eager message: rails %v built, want [%d]", side, b, tc.rail)
				}
			}
			all := []int{0, 1, 2, 3}
			if b0, b1 := builtRails(w.Endpoints[0].conns[1]), builtRails(w.Endpoints[1].conns[0]); !slices.Equal(b0, all) || !slices.Equal(b1, all) {
				t.Errorf("after the rendezvous: rails %v and %v built, want %v", b0, b1, all)
			}
			if !bytes.Equal(got, fill(n, 7)) {
				t.Error("rendezvous payload corrupted")
			}
		})
	}
}

// TestRailQPNsMatchUpFrontBuild: pairs wired in a seeded random order, from
// random sides, whose rails are then built one post at a time in a random
// (pair, rail) order, give every QP the QPN an up-front build gives it (each
// pair numbering its rails in order, both halves per rail, as it is wired)
// and every flow and responder flow the all-pairs route key.
func TestRailQPNsMatchUpFrontBuild(t *testing.T) {
	spec := topo.Spec{Nodes: 3, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 2, QPsPerPort: 4}
	keys := allPairsKeys(spec)
	w := NewWorld(sim.NewEngine(), model.Default(), spec, Options{Policy: core.EPC})
	rng := rand.New(rand.NewSource(3))
	var pairs [][2]int
	for i := 0; i < spec.Size(); i++ {
		for j := i + 1; j < spec.Size(); j++ {
			if !w.Cluster.SameNode(i, j) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	want := map[[3]int][2]int{} // (i, j, rail) -> QPNs of i's and j's half
	qpn := 0
	var posts [][3]int
	for _, pr := range pairs {
		from, to := pr[0], pr[1]
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		w.Endpoints[from].conn(to)
		for r := range spec.Rails() {
			want[[3]int{pr[0], pr[1], r}] = [2]int{qpn + 1, qpn + 2}
			qpn += 2
			posts = append(posts, [3]int{from, to, r})
		}
	}
	rng.Shuffle(len(posts), func(a, b int) { posts[a], posts[b] = posts[b], posts[a] })
	for _, p := range posts {
		ep := w.Endpoints[p[0]]
		ep.railQP(ep.conns[p[1]], p[2])
	}
	for key, q := range want {
		i, j, r := key[0], key[1], key[2]
		qi, qj := w.Endpoints[i].conns[j].rails[r], w.Endpoints[j].conns[i].rails[r]
		if qi.QPN != q[0] || qj.QPN != q[1] || qi.Remote() != qj {
			t.Fatalf("pair (%d,%d) rail %d: QPNs %d, %d; an up-front build gives %d, %d", i, j, r, qi.QPN, qj.QPN, q[0], q[1])
		}
		got := railKeys{
			iFlow: flowID(qi.Flow().Src().Name, qi.Flow().Dst().Name, qi.Flow().RouteKey()),
			iResp: flowID(qi.RespFlow().Src().Name, qi.RespFlow().Dst().Name, qi.RespFlow().RouteKey()),
			jFlow: flowID(qj.Flow().Src().Name, qj.Flow().Dst().Name, qj.Flow().RouteKey()),
			jResp: flowID(qj.RespFlow().Src().Name, qj.RespFlow().Dst().Name, qj.RespFlow().RouteKey()),
		}
		if got != keys[key] {
			t.Fatalf("pair (%d,%d) rail %d:\n got %+v\nwant %+v", i, j, r, got, keys[key])
		}
	}
	t.Logf("%d QP pairs numbered and keyed as built up front", len(want))
}

// TestRailDownBeforeFirstPost: a rail that SetRail failed after a pair had
// talked, but before anything posted on that rail, is down on both halves
// once built, and the reliability layer sees it down: the striped
// rendezvous that first posts on it quarantines it and completes on the
// survivor.
func TestRailDownBeforeFirstPost(t *testing.T) {
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	const n = 128 << 10
	eng := sim.NewEngine()
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC})
	w.EnableReliability(ReliabilityConfig{})
	got := make([]byte, n)
	var before []int
	w.Spawn("t", func(ep *Endpoint) {
		if ep.Rank == 1 {
			ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 0))
			ep.Wait(ep.PostRecv(0, 1, CtxPt2Pt, got, n))
			return
		}
		ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, 0))
		ep.Compute(100 * sim.Microsecond)
		before = builtRails(ep.conns[1])
		w.SetRail(0, 1, false)
		ep.Wait(ep.PostSend(1, 1, CtxPt2Pt, core.Blocking, fill(n, 3), n))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, []int{0}) {
		t.Fatalf("rails %v built before SetRail, want [0]", before)
	}
	if !bytes.Equal(got, fill(n, 3)) {
		t.Error("payload corrupted")
	}
	c0, c1 := w.Endpoints[0].conns[1], w.Endpoints[1].conns[0]
	if !c0.rails[1].IsDown() || !c1.rails[1].IsDown() {
		t.Error("rail 1 QPs up after SetRail(down)")
	}
	if c0.rails[0].IsDown() || c1.rails[0].IsDown() {
		t.Error("rail 0 went down")
	}
	if !c0.sched.Dead.IsDown(1) || w.Endpoints[0].Stats().RailQuarantines == 0 {
		t.Errorf("the reliability layer did not see rail 1 down (mask %b, %d quarantines)",
			c0.sched.Dead, w.Endpoints[0].Stats().RailQuarantines)
	}
}

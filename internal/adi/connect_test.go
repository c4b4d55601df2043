package adi

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// Connections on first use (DESIGN.md §19): a pair is wired when either side
// first initiates traffic, and every route key equals the one the all-pairs
// build gave, whatever order the pairs are wired in.

// railKeys are one rail's four flows, each as "src->dst#key".
type railKeys struct{ iFlow, iResp, jFlow, jResp string }

func flowID(src, dst string, key uint64) string { return fmt.Sprintf("%s->%s#%x", src, dst, key) }

// allPairsKeys replays the all-pairs build on a fresh copy of the spec's
// hardware: pairs (i, j) in lexicographic order, rails in order, and per
// rail the four flows in the order the all-pairs ib.Connect built them,
// each from its port's creation counter.
func allPairsKeys(spec topo.Spec) map[[3]int]railKeys {
	cl := topo.Build(spec, model.Default())
	eng := sim.NewEngine()
	keys := map[[3]int]railKeys{}
	for i := 0; i < spec.Size(); i++ {
		for j := i + 1; j < spec.Size(); j++ {
			if cl.SameNode(i, j) {
				continue
			}
			for r := 0; r < spec.Rails(); r++ {
				a, b := cl.PortsOf(i)[r/spec.QPsPerPort], cl.PortsOf(j)[r/spec.QPsPerPort]
				var k railKeys
				k.iFlow = flowID(a.Name, b.Name, a.NewFlow(eng, b).RouteKey())
				k.jFlow = flowID(b.Name, a.Name, b.NewFlow(eng, a).RouteKey())
				k.iResp = flowID(b.Name, a.Name, b.NewFlow(eng, a).RouteKey())
				k.jResp = flowID(a.Name, b.Name, a.NewFlow(eng, b).RouteKey())
				keys[[3]int{i, j, r}] = k
			}
		}
	}
	return keys
}

func TestRouteKeysMatchAllPairsBuild(t *testing.T) {
	specs := map[string]topo.Spec{
		"ppn3":       {Nodes: 4, ProcsPerNode: 3, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1},
		"2hca2port":  {Nodes: 3, ProcsPerNode: 2, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 1},
		"2port4qp":   {Nodes: 3, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 2, QPsPerPort: 4},
		"twolevel":   {Nodes: 5, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4, NodesPerSwitch: 2},
		"three-tier": {Nodes: 8, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2, NodesPerSwitch: 2, Tiers: 3, SpinesPerPod: 2},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			want := allPairsKeys(spec)
			w := NewWorld(sim.NewEngine(), model.Default(), spec, Options{Policy: core.EPC})
			// Wire every pair in a seeded random order, from a random side.
			var pairs [][2]int
			for i := 0; i < spec.Size(); i++ {
				for j := i + 1; j < spec.Size(); j++ {
					pairs = append(pairs, [2]int{i, j})
				}
			}
			rng := rand.New(rand.NewSource(1))
			rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
			for _, pr := range pairs {
				if rng.Intn(2) == 0 {
					pr[0], pr[1] = pr[1], pr[0]
				}
				w.Endpoints[pr[0]].Conn(pr[1])
			}
			checked := 0
			for key, k := range want {
				i, j, r := key[0], key[1], key[2]
				qi, qj := w.Endpoints[i].conns[j].rails[r], w.Endpoints[j].conns[i].rails[r]
				got := railKeys{
					iFlow: flowID(qi.Flow().Src().Name, qi.Flow().Dst().Name, qi.Flow().RouteKey()),
					iResp: flowID(qi.RespFlow().Src().Name, qi.RespFlow().Dst().Name, qi.RespFlow().RouteKey()),
					jFlow: flowID(qj.Flow().Src().Name, qj.Flow().Dst().Name, qj.Flow().RouteKey()),
					jResp: flowID(qj.RespFlow().Src().Name, qj.RespFlow().Dst().Name, qj.RespFlow().RouteKey()),
				}
				if got != k {
					t.Fatalf("pair (%d,%d) rail %d:\n got %+v\nwant %+v", i, j, r, got, k)
				}
				checked += 4
			}
			if checked == 0 {
				t.Fatal("shape has no inter-node flows")
			}
			t.Logf("%d route keys match", checked)
		})
	}
}

// TestRespFlowOnFirstUse: responder flows are built on the first RDMA read
// or atomic, under the ordinal the connection recorded, so RGET transfers
// and atomics crossing a statically routed three-tier tree complete at the
// same instants as in a world whose responder flows were all built up front.
func TestRespFlowOnFirstUse(t *testing.T) {
	spec := topo.Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2,
		NodesPerSwitch: 2, Tiers: 3, SpinesPerPod: 2, Routing: fabric.RouteStatic}
	const n = 256 * 1024
	runOnce := func(forced bool) (done []sim.Time, resp []uint64) {
		eng := sim.NewEngine()
		w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC, Rndv: RndvRead})
		if forced {
			for _, ep := range w.Endpoints {
				for peer := range w.Endpoints {
					if c := ep.Conn(peer); c != nil {
						for _, qp := range c.rails {
							qp.RespFlow()
						}
					}
				}
			}
		}
		rkeys := make([]uint32, len(w.Endpoints))
		for i, ep := range w.Endpoints {
			rkeys[i] = ep.RegisterWindow(0, make([]byte, 64), 64)
		}
		done = make([]sim.Time, len(w.Endpoints))
		// Ranks 0-3 each RGET a block from, then fetch-add on, a rank in
		// the other pod; the transfers share trunks.
		w.Spawn("t", func(ep *Endpoint) {
			half := len(w.Endpoints) / 2
			if ep.Rank >= half {
				ep.Wait(ep.PostSend(ep.Rank-half, 1, CtxPt2Pt, core.Blocking, fill(n, byte(ep.Rank)), n))
			} else {
				peer := ep.Rank + half
				got := make([]byte, n)
				ep.Wait(ep.PostRecv(peer, 1, CtxPt2Pt, got, n))
				if !bytes.Equal(got, fill(n, byte(peer))) {
					t.Errorf("rank %d: RGET payload corrupted", ep.Rank)
				}
				ep.Wait(ep.FetchAtomic(peer, 0, rkeys[peer], 0, false, 1, 0))
			}
			done[ep.Rank] = ep.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(w.Endpoints)/2; i++ {
			resp = append(resp, w.Endpoints[i].conns[i+len(w.Endpoints)/2].rails[0].RespFlow().RouteKey())
		}
		return done, resp
	}
	lazyDone, lazyResp := runOnce(false)
	forcedDone, forcedResp := runOnce(true)
	for i := range lazyDone {
		if lazyDone[i] != forcedDone[i] {
			t.Errorf("rank %d done at %v, %v with responder flows built up front", i, lazyDone[i], forcedDone[i])
		}
	}
	for i := range lazyResp {
		if lazyResp[i] != forcedResp[i] {
			t.Errorf("rank %d: responder route key %x, %x built up front", i, lazyResp[i], forcedResp[i])
		}
	}
}

// TestConnectOnFirstUse: a fresh world has no connections, and a send wires
// exactly its own pair, both halves.
func TestConnectOnFirstUse(t *testing.T) {
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	w := run(t, spec, Options{Policy: core.EPC},
		func(ep *Endpoint) {
			for _, c := range ep.conns {
				if c != nil {
					t.Error("connection wired before first use")
				}
			}
			ep.Wait(ep.PostSend(2, 0, CtxPt2Pt, core.Blocking, nil, 64<<10)) // inter-node
			ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, 64))     // intra-node
		},
		func(ep *Endpoint) { ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 64)) },
		func(ep *Endpoint) { ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 64<<10)) },
		func(ep *Endpoint) {})
	for i, ep := range w.Endpoints {
		for j, c := range ep.conns {
			wired := (i == 0 && (j == 1 || j == 2)) || (j == 0 && (i == 1 || i == 2))
			if (c != nil) != wired {
				t.Errorf("conn %d->%d wired=%v, want %v", i, j, c != nil, wired)
			}
		}
	}
	if c := w.Endpoints[2].conns[0]; c.Rails() != 2 || c.sh != nil {
		t.Errorf("inter-node half: %d rails, shmem %v", c.Rails(), c.sh != nil)
	}
	if c := w.Endpoints[1].conns[0]; c.sh == nil {
		t.Error("intra-node half has no shmem link")
	}
}

// TestRailDownBeforeFirstUse: a rail failed at t=0, before any pair touching
// the node has talked, reaches the connections used later: both QP halves
// are down, and the traffic completes on the surviving rail once the
// reliability layer discovers the failure.
func TestRailDownBeforeFirstUse(t *testing.T) {
	spec := topo.Spec{Nodes: 3, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	const n = 128 * 1024
	eng := sim.NewEngine()
	w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC})
	w.EnableReliability(ReliabilityConfig{})
	w.SetRail(0, 1, false) // t=0, before any rank runs
	got := [][]byte{nil, make([]byte, n), make([]byte, n)}
	w.Spawn("t", func(ep *Endpoint) {
		if ep.Rank == 0 {
			ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, fill(n, 1), n))
			ep.Wait(ep.PostSend(2, 0, CtxPt2Pt, core.Blocking, fill(n, 2), n))
			return
		}
		ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, got[ep.Rank], n))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c := w.Endpoints[1].conns[2]; c != nil {
		t.Error("pair (1,2) never talked but is wired")
	}
	for peer := 1; peer <= 2; peer++ {
		if !bytes.Equal(got[peer], fill(n, byte(peer))) {
			t.Errorf("rank %d payload corrupted", peer)
		}
		c0, cp := w.Endpoints[0].conns[peer], w.Endpoints[peer].conns[0]
		if !c0.rails[1].IsDown() || !cp.rails[1].IsDown() {
			t.Errorf("peer %d: rail 1 QPs up after SetRail(down)", peer)
		}
		if c0.rails[0].IsDown() || cp.rails[0].IsDown() {
			t.Errorf("peer %d: rail 0 went down", peer)
		}
	}
}

// TestSetRailNeedsReliability: the reliability layer is the only code that
// changes a rail's policy-visible health, so flipping a rail on a world
// without it is a programming error, whichever way the rail goes.
func TestSetRailNeedsReliability(t *testing.T) {
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	for _, up := range []bool{false, true} {
		w := NewWorld(sim.NewEngine(), model.Default(), spec, Options{Policy: core.EPC})
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "EnableReliability") {
					t.Errorf("SetRail(up=%v) without the layer: recovered %v, want a panic naming EnableReliability", up, r)
				}
			}()
			w.SetRail(0, 1, up)
		}()
	}
}

// TestInterRailsBeforeAnyConnection: the lane width is a topology constant,
// answered before any pair is wired and without wiring one.
func TestInterRailsBeforeAnyConnection(t *testing.T) {
	for _, tc := range []struct {
		spec topo.Spec
		want int
	}{
		{topo.Spec{Nodes: 2, ProcsPerNode: 2, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 3}, 12},
		{topo.Spec{Nodes: 1, ProcsPerNode: 4, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4}, 0},
	} {
		w := NewWorld(sim.NewEngine(), model.Default(), tc.spec, Options{Policy: core.EPC})
		for _, ep := range w.Endpoints {
			if got := ep.InterRails(); got != tc.want {
				t.Errorf("%+v rank %d: InterRails() = %d, want %d", tc.spec, ep.Rank, got, tc.want)
			}
			for peer, c := range ep.conns {
				if c != nil {
					t.Errorf("rank %d: InterRails wired the pair with %d", ep.Rank, peer)
				}
			}
		}
	}
}

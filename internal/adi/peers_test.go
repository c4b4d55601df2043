package adi

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// The peer table (Endpoint.conns) holds only wired connections and walks
// them in ascending peer order, whatever order they were wired in.

// TestHealthScanAscendingPeers: with reliability armed and rank 0's pairs
// wired in a shuffled order, one rail expires on two connections in the same
// scan, and the suspect/quarantine records come out in ascending peer order.
// Eight shuffles make an unordered walk fail with near certainty.
func TestHealthScanAscendingPeers(t *testing.T) {
	spec := topo.Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	const rail = 1
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := trace.NewRecorder(0)
		eng := sim.NewEngine()
		w := NewWorld(eng, model.Default(), spec, Options{Policy: core.EPC, Trace: rec})
		w.EnableReliability(ReliabilityConfig{SuspectAfter: 1})
		peers := rng.Perm(len(w.Endpoints) - 1)
		for k := range peers {
			peers[k]++ // ranks 1..7 in a shuffled order
			if rng.Intn(2) == 0 {
				w.Endpoints[0].Conn(peers[k])
			} else {
				w.Endpoints[peers[k]].Conn(0)
			}
		}
		expire := peers[:2]
		w.Spawn("t", func(ep *Endpoint) {
			if ep.Rank != 0 {
				return
			}
			ep.Compute(10 * sim.Microsecond)
			for k, p := range expire {
				ep.inflight[^uint64(k)] = &inflightWR{conn: ep.conns[p], rail: rail, deadline: 1}
			}
			ep.healthScan()
			for k := range expire {
				delete(ep.inflight, ^uint64(k))
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		lo, hi := min(expire[0], expire[1]), max(expire[0], expire[1])
		want := fmt.Sprintf("[%v %d %v %d %v %d %v %d]",
			trace.KindRailSuspect, lo, trace.KindRailQuarantine, lo,
			trace.KindRailSuspect, hi, trace.KindRailQuarantine, hi)
		var got []any
		for _, e := range rec.Events() {
			if e.Rank == 0 && e.Rail == rail && (e.Kind == trace.KindRailSuspect || e.Kind == trace.KindRailQuarantine) {
				got = append(got, e.Kind, e.Peer)
			}
		}
		if fmt.Sprint(got) != want {
			t.Errorf("seed %d, wired %v: records %v, want %s", seed, peers, got, want)
		}
	}
}

// TestConnRejectsInvalidPeer: a peer outside [0, size) panics naming the
// invalid peer, as PostSend does, and wires nothing.
func TestConnRejectsInvalidPeer(t *testing.T) {
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	w := NewWorld(sim.NewEngine(), model.Default(), spec, Options{Policy: core.EPC})
	ep := w.Endpoints[1]
	for _, peer := range []int{-1, len(w.Endpoints), 1 << 20} {
		for op, call := range map[string]func(){
			"Conn":     func() { ep.Conn(peer) },
			"PostSend": func() { ep.PostSend(peer, 0, CtxPt2Pt, core.Blocking, nil, 8) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid peer") {
						t.Errorf("%s(%d): recovered %v, want an invalid-peer panic", op, peer, r)
					}
				}()
				call()
			}()
		}
	}
	if len(ep.wired) != 0 {
		t.Error("an invalid peer was wired")
	}
}

// TestPeerStateConstantPerRank: building a world wires nothing, so the heap
// a rank holds does not grow with the world. A dense peer table costs
// 8 bytes per rank per rank: 8 KB per rank at 1 024 ranks, 32 KB at 4 096.
func TestPeerStateConstantPerRank(t *testing.T) {
	perRank := func(nodes int) float64 {
		spec := topo.Spec{Nodes: nodes, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4,
			NodesPerSwitch: 16, Tiers: 3, SpinesPerPod: 4}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		w := NewWorld(sim.NewEngine(), model.Default(), spec, Options{Policy: core.EPC})
		runtime.GC()
		runtime.ReadMemStats(&m1)
		for _, ep := range w.Endpoints {
			if len(ep.conns) != 1 || len(ep.wired) != 0 {
				t.Fatalf("%d nodes: rank %d holds %d table entries before any traffic", nodes, ep.Rank, len(ep.conns))
			}
		}
		runtime.KeepAlive(w)
		return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(nodes)
	}
	small, large := perRank(1024), perRank(4096)
	t.Logf("world heap per rank: %.0f B at 1024 ranks, %.0f B at 4096", small, large)
	if large > 1.25*small {
		t.Errorf("per-rank heap grows with the world: %.0f B at 1024 ranks, %.0f B at 4096", small, large)
	}
}

package ib12x

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// TestAllocationInvariants counts what one iteration of the figure benchmarks
// allocates (the bodies are bench_test.go's own) and holds each count to a
// budget. Allocation counts are a property of the code, not of the host, so
// they gate under plain `go test`; host time is benchmark/'s business.
//
// A ceiling row may allocate up to 1.5× its last recorded count. A parity row
// runs the same traffic as its base with one mechanism switched on, and that
// mechanism's state is per connection, built once with the world: the row may
// exceed its base by 10 % plus a fixed headroom for that state, so garbage
// per message or per chunk trips it. (The ping-pong body sends 220 messages
// and 10 % of its base is 40 allocations, so the ring's headroom must stay
// well under 180 for one allocation per message to show.) A flat parity row
// runs twice its base's traffic in the same world shape and may exceed it by
// its headroom only, so any garbage per message shows. The Conns pair wires
// twice as many rank pairs across 16 rails and may cost three allocations
// per extra pair (the wired pair's Conn record, QP block and rail array),
// so one allocation per rail shows sixteen times over. The Posts pair has
// twice as many 16-rail pairs exchange one 0-byte message each and may cost
// postHeadroom allocations per extra pair, so a flow that keeps its
// pipeline state after its WQE, or a rail build that allocates per rail,
// shows. (internal/adi's TestRailsOnFirstPost checks which rails such a
// pair builds.) The Window pair streams twice as many windows of 64
// non-blocking requests that are waited on and never released, and may cost
// one allocation per full request block the extra requests fill: requests
// come from blocks of 63, so a request allocated on its own shows 63 times
// over.
func TestAllocationInvariants(t *testing.T) {
	rows := []struct {
		name     string
		body     figBody
		recorded int64  // ceiling row: allocs/op when the ceiling was set
		base     string // parity row: the earlier row it must stay level with
		headroom int64
		flat     bool   // parity without the 10 % allowance
		leak     string // what a parity failure means
	}{
		{name: "Fig04", body: fig04, recorded: 969},
		{name: "Fig06", body: fig06(mpi.Config{}), recorded: 2563},
		{name: "Fig07", body: fig07, recorded: 1155},
		{name: "Fig08", body: fig08, recorded: 1497},
		{name: "Fig06/integrity", body: fig06(mpi.Config{Integrity: adi.IntegrityVerify}),
			base: "Fig06", headroom: 512, leak: "checksum capture or verify allocates per payload"},
		{name: "Fig06/three-tier", body: fig06(mpi.Config{NodesPerSwitch: 1, Tiers: 3, SpinesPerPod: 2, Routing: fabric.RouteAdaptive}),
			base: "Fig06", headroom: 512, leak: "the route walk allocates per chunk"},
		{name: "SmallMsg/sendrecv", body: smallMsg(adi.EagerSendRecv)},
		{name: "SmallMsg/ring", body: smallMsg(adi.EagerRDMAWrite),
			base: "SmallMsg/sendrecv", headroom: 128, leak: "the ring fast path allocates per message"},
		{name: "Stripes/N", body: stripeTraffic(16)},
		{name: "Stripes/2N", body: stripeTraffic(32), base: "Stripes/N", headroom: 32, flat: true,
			leak: "a rendezvous or PutBulk stripe allocates per message"},
		{name: "Conns/N", body: wirePairs(wiredPairs)},
		{name: "Conns/2N", body: wirePairs(2 * wiredPairs), base: "Conns/N", headroom: 3 * wiredPairs, flat: true,
			leak: "wiring a rank pair allocates per rail"},
		{name: "Posts/N", body: postPairs(wiredPairs)},
		{name: "Posts/2N", body: postPairs(2 * wiredPairs), base: "Posts/N", headroom: postHeadroom * wiredPairs, flat: true,
			leak: "a pair that carried one eager message holds per-rail or per-flow state"},
		{name: "Window/N", body: windowStream(streamWindows)},
		{name: "Window/2N", body: windowStream(2 * streamWindows), base: "Window/N", headroom: windowHeadroom, flat: true,
			leak: "a non-blocking request is allocated on its own"},
	}
	// The collector stays off while counting. A cycle empties every
	// sync.Pool (fmt's printer cache among them), so the next Sprintf
	// allocates afresh: a couple of allocations that land in whichever row
	// a cycle happens to fall in, enough to tip an exact flat budget. The
	// rows allocate about 60 MB in all.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := map[string]int64{}
	for _, r := range rows {
		n := int64(testing.AllocsPerRun(1, func() {
			if _, err := r.body(); err != nil {
				t.Fatal(err)
			}
		}))
		got[r.name] = n
		switch {
		case r.base != "":
			b := got[r.base]
			budget, rule := b+b/10+r.headroom, "10% + "
			if r.flat {
				budget, rule = b+r.headroom, ""
			}
			if n > budget {
				t.Errorf("%s: %d allocs/op, budget %d (%s %d + %s%d): %s", r.name, n, budget, r.base, b, rule, r.headroom, r.leak)
			}
		case r.recorded > 0:
			if budget := r.recorded * 3 / 2; n > budget {
				t.Errorf("%s: %d allocs/op, budget %d (1.5 × the recorded %d)", r.name, n, budget, r.recorded)
			}
		}
		t.Logf("%-18s %6d allocs/op", r.name, n)
	}
}

// stripeTraffic is n striped 1 MB rendezvous round trips followed by n
// 1 MB PutBulk transfers, each waited and released, between two nodes over
// four QPs per port under EPC — every stripe kind of the write path, in one
// world.
func stripeTraffic(n int) figBody {
	return func() ([]float64, error) {
		cfg := mpi.Config{Nodes: 2, ProcsPerNode: 1, QPsPerPort: 4, Policy: core.EPC}
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			const size, win = 1 << 20, 7
			msg, key := make([]byte, size), make([]byte, 4)
			ep, peer := c.Endpoint(), 1-c.Rank()
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 0, msg)
					c.Recv(peer, 0, msg)
				} else {
					c.Recv(peer, 0, msg)
					c.Send(peer, 0, msg)
				}
			}
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint32(key, ep.RegisterWindow(win, make([]byte, size), size))
				c.Send(0, 1, key)
			} else {
				c.Recv(1, 1, key)
				rkey := binary.LittleEndian.Uint32(key)
				for i := 0; i < n; i++ {
					req, _ := ep.PutBulk(1, win, rkey, 0, msg, size, core.Blocking)
					ep.Wait(req)
					req.Release()
				}
			}
			c.Barrier()
			if c.Rank() == 1 {
				ep.UnregisterWindow(win)
			}
		})
		return nil, err
	}
}

// wiredPairs is the Conns/N row's pair count.
const wiredPairs = 16

// wirePairs builds a two-node world of 2 HCAs × 2 ports × 4 QPs per port
// (16 rails) with 2·wiredPairs ranks per node and wires n disjoint
// inter-node rank pairs through Endpoint.Conn. Both rows build the same
// world, so only the wiring differs.
func wirePairs(n int) figBody {
	return func() ([]float64, error) {
		const ppn = 2 * wiredPairs
		spec := topo.Spec{Nodes: 2, ProcsPerNode: ppn, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 4}
		w := adi.NewWorld(sim.NewEngine(), model.Default(), spec, adi.Options{Policy: core.EPC})
		for k := 0; k < n; k++ {
			if c := w.Endpoints[k].Conn(ppn + k); c.Rails() != 16 {
				return nil, fmt.Errorf("pair (%d, %d) wired %d rails, want 16", k, ppn+k, c.Rails())
			}
		}
		return nil, nil
	}
}

// postHeadroom is what the Posts/2N row may cost per extra pair, 9.6 of
// which it needs: the Conn record, the rail array and the one rail's QP
// block its message builds (3), and the first message of two fresh
// endpoints (each CQ's ring, the receive index's buckets, timer and queue
// slots). While each endpoint carved its own requests it needed 12.5, under
// a headroom of 13; with a flow's pipeline state kept per flow it needed
// 15.5: a ring, an xfer and a pool slice more.
const postHeadroom = 10

// postPairs builds wirePairs' 16-rail world and has n disjoint inter-node
// rank pairs exchange one 0-byte eager message each, the traffic a drain
// barrier puts on most of its pairs. Every rank is spawned in both rows.
// The pairs send 50 µs apart, one message in flight at a time, so what the
// pools of in-flight state (timer nodes, WR records, pipeline states) hold
// does not grow with the pair count and each pair's own state shows.
func postPairs(n int) figBody {
	return func() ([]float64, error) {
		const ppn = 2 * wiredPairs
		spec := topo.Spec{Nodes: 2, ProcsPerNode: ppn, HCAsPerNode: 2, PortsPerHCA: 2, QPsPerPort: 4}
		eng := sim.NewEngine()
		w := adi.NewWorld(eng, model.Default(), spec, adi.Options{Policy: core.EPC})
		w.Spawn("p", func(ep *adi.Endpoint) {
			switch k := ep.Rank; {
			case k < n:
				ep.Compute(sim.Time(k) * 50 * sim.Microsecond)
				ep.Wait(ep.PostSend(ppn+k, 0, adi.CtxPt2Pt, core.Collective, nil, 0))
			case k >= ppn && k < ppn+n:
				ep.Wait(ep.PostRecv(k-ppn, 0, adi.CtxPt2Pt, nil, 0))
			}
		})
		return nil, eng.Run()
	}
}

// streamWindows is the Window/N row's window count, and streamWindow the
// requests each of its two ranks posts per window.
const streamWindows, streamWindow = 8, 64

// windowHeadroom is what the Window/2N row may cost over Window/N: one
// block of 63 requests (a full sim.Slab block of adi.Request) per 63 extra
// requests, rounded up, and 8 for the event queue. A run twice as long
// crosses one more power of two of virtual time, and the radix bucket that
// crossing fills grows by append to the run's queue depth, once.
const windowHeadroom = (2*streamWindows*streamWindow+62)/63 + 8

// windowStream is the paper's bandwidth test between two nodes: n windows of
// streamWindow synthetic 16 KB IsendN on rank 0 and IrecvN on rank 1, each
// window closed by Waitall. Like benchmark/'s p2p_bw it never releases a
// request.
func windowStream(n int) figBody {
	return func() ([]float64, error) {
		const size = 16 << 10
		_, err := mpi.Run(mpi.Config{Nodes: 2}, func(c *mpi.Comm) {
			reqs := make([]*mpi.Request, streamWindow)
			for w := 0; w < n; w++ {
				for i := range reqs {
					if c.Rank() == 0 {
						reqs[i] = c.IsendN(1, 0, nil, size)
					} else {
						reqs[i] = c.IrecvN(0, 0, nil, size)
					}
				}
				c.Waitall(reqs)
			}
		})
		return nil, err
	}
}

// engineTap is a fault plan that arms no fault: it hands the test every
// engine a figure body builds, so vitals the body does not report can be
// read after it returns.
type engineTap []*sim.Engine

func (tap *engineTap) Arm(eng *sim.Engine, _ *adi.World) error {
	*tap = append(*tap, eng)
	return nil
}

// TestFig06QueueHighWater bounds the event queue's depth over the Figure 6
// sweeps. Each chunk stream keeps one event pending — the next chunk a send
// engine will stage, and per port the next chunk to arrive off the wire —
// so the depth follows the number of live streams, not the bytes in flight.
// Posting every chunk of a WQE up front and one arrival event per chunk on
// the wire peaked at 2521 here; the lazy pipeline peaks at 66.
func TestFig06QueueHighWater(t *testing.T) {
	var tap engineTap
	if _, err := fig06(mpi.Config{Chaos: &tap})(); err != nil {
		t.Fatal(err)
	}
	hw := 0
	for _, e := range tap {
		hw = max(hw, e.QueueHighWater())
	}
	t.Logf("%d runs, queue high-water %d", len(tap), hw)
	const recorded = 66
	if hw > 2*recorded {
		t.Errorf("queue high-water %d, budget %d (2 × the recorded %d)", hw, 2*recorded, recorded)
	}
}

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
// so one allocation per rail shows sixteen times over.
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
		{name: "Fig04", body: fig04, recorded: 1268},
		{name: "Fig06", body: fig06(mpi.Config{}), recorded: 11104},
		{name: "Fig07", body: fig07, recorded: 6613},
		{name: "Fig08", body: fig08, recorded: 2595},
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

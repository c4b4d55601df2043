package hca

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// orderRig is n single-HCA nodes of ports ports each on one fabric.
type orderRig struct {
	eng   *sim.Engine
	ports [][]*Port // [node][port]
}

func newOrderRig(m *model.Params, net *fabric.Net, nodes, ports int) *orderRig {
	r := &orderRig{eng: sim.NewEngine()}
	for i := 0; i < nodes; i++ {
		h := New(fmt.Sprintf("n%d", i), ports, gx.New(m.GXRate), m, net)
		for _, p := range h.Ports {
			p.Node = i
		}
		r.ports = append(r.ports, h.Ports)
	}
	return r
}

// stream posts count messages on f at time zero, cycling through sizes.
func (r *orderRig) stream(f *Flow, count int, sizes ...int) {
	r.eng.Post(0, func() {
		for i := 0; i < count; i++ {
			f.Send(sizes[i%len(sizes)], nil, nil)
		}
	})
}

// orderScenarios are the chunk-pipeline shapes the oracle pins: each builds
// a rig, posts its traffic and arms its faults. bypass marks the shapes
// whose chunks overtake their port's wire FIFO: routes of different length
// from one port, and a latency pad that drops mid-stream.
var orderScenarios = []struct {
	name   string
	bypass bool
	build  func(m *model.Params) *orderRig
}{
	{"flat-2port-window", false, func(m *model.Params) *orderRig {
		r := newOrderRig(m, fabric.NewSingleSwitch(m.WireLatency), 2, 2)
		for p := 0; p < 2; p++ {
			for q := 0; q < 2; q++ {
				r.stream(r.ports[0][p].NewFlow(r.eng, r.ports[1][p]), 24, 512, 8*1024, 64*1024+123, 256*1024)
			}
		}
		r.stream(r.ports[1][0].NewFlow(r.eng, r.ports[0][1]), 8, 32*1024)
		return r
	}},
	{"fan-in-4to1", false, func(m *model.Params) *orderRig {
		r := newOrderRig(m, fabric.NewSingleSwitch(m.WireLatency), 5, 1)
		for src := 0; src < 4; src++ {
			r.stream(r.ports[src][0].NewFlow(r.eng, r.ports[4][0]), 8, 48*1024, 100*1024)
		}
		return r
	}},
	{"three-tier-trunk-contention", true, func(m *model.Params) *orderRig {
		net := fabric.NewThreeTier(m.WireLatency, 8, 1, 2, m.LinkRawRate/2, fabric.RouteAdaptive, 7)
		r := newOrderRig(m, net, 8, 1)
		for _, fl := range [][2]int{{0, 7}, {0, 1}, {1, 7}, {2, 7}, {3, 6}, {0, 4}, {5, 7}} {
			r.stream(r.ports[fl[0]][0].NewFlow(r.eng, r.ports[fl[1]][0]), 6, 64*1024, 4096, 200*1024)
		}
		return r
	}},
	{"degrade-pad-drops-mid-stream", true, func(m *model.Params) *orderRig {
		r := newOrderRig(m, fabric.NewSingleSwitch(m.WireLatency), 3, 1)
		src := r.ports[0][0]
		src.DegradeLink(0.5, 30*sim.Microsecond)
		r.stream(src.NewFlow(r.eng, r.ports[1][0]), 12, 128*1024)
		r.stream(src.NewFlow(r.eng, r.ports[2][0]), 12, 20*1024, 1<<20)
		r.eng.Post(300*sim.Microsecond, src.RestoreLink)
		return r
	}},
	{"error-every-retransmit", false, func(m *model.Params) *orderRig {
		r := newOrderRig(m, fabric.NewSingleSwitch(m.WireLatency), 2, 1)
		r.ports[0][0].ErrorEvery = 3
		for q := 0; q < 3; q++ {
			r.stream(r.ports[0][0].NewFlow(r.eng, r.ports[1][0]), 10, 40*1024, 1024)
		}
		return r
	}},
	{"stall-until", false, func(m *model.Params) *orderRig {
		r := newOrderRig(m, fabric.NewSingleSwitch(m.WireLatency), 2, 2)
		r.ports[0][0].StallUntil = 80 * sim.Microsecond
		for p := 0; p < 2; p++ {
			r.stream(r.ports[0][p].NewFlow(r.eng, r.ports[1][p]), 10, 96*1024)
		}
		r.eng.Post(120*sim.Microsecond, func() { r.ports[0][1].StallUntil = 400 * sim.Microsecond })
		return r
	}},
}

// chunkOrderDigest runs one scenario and digests (Now, EventsFired, stage,
// flow, bytes) at every pipeline stage event, plus the final clock and
// event count.
func chunkOrderDigest(t *testing.T, r *orderRig) uint64 {
	t.Helper()
	h := fnv.New64a()
	eng := r.eng
	stageHook = func(stage string, f *Flow, n int) {
		fmt.Fprintf(h, "%d/%d/%s/%x/%d;", eng.Now(), eng.EventsFired(), stage, f.routeKey, n)
	}
	defer func() { stageHook = nil }()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "end %d/%d", eng.Now(), eng.EventsFired())
	return h.Sum64()
}

// chunkOrderDigests were recorded on the pipeline that posted every chunk
// of a WQE up front and one arrival event per chunk on the wire, before the
// lazy chunk release and the per-port wire FIFO. Any change to how the
// chunk pipeline schedules its events must leave them untouched.
var chunkOrderDigests = map[string]uint64{
	"flat-2port-window":            0xa0496e96b4dc60ab,
	"fan-in-4to1":                  0xa872716644ee1868,
	"three-tier-trunk-contention":  0xc21c50f35ce0520e,
	"degrade-pad-drops-mid-stream": 0x6bcf39c44033b289,
	"error-every-retransmit":       0x4db720953d1e1eb3,
	"stall-until":                  0x865af5841b1d7e8f,
}

func TestChunkOrderOracle(t *testing.T) {
	for _, sc := range orderScenarios {
		r := sc.build(model.Default())
		got := chunkOrderDigest(t, r)
		var bypass int64
		for _, node := range r.ports {
			for _, p := range node {
				bypass += p.wireBypass
			}
		}
		t.Logf("%s: %d events, queue high-water %d, %d chunks bypassed the wire FIFO", sc.name, r.eng.EventsFired(), r.eng.QueueHighWater(), bypass)
		if sc.bypass && bypass == 0 {
			t.Errorf("%s: no chunk took the wire FIFO bypass", sc.name)
		}
		if want := chunkOrderDigests[sc.name]; got != want {
			t.Errorf("%s: digest %#016x, want %#016x", sc.name, got, want)
		}
	}
}

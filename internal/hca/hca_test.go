package hca

import (
	"math"
	"runtime"
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// rig is a pair of single-port HCAs on separate nodes joined by one switch,
// with a simulation engine driving the staged pipeline.
type rig struct {
	eng      *sim.Engine
	m        *model.Params
	src, dst *Port
}

func newRig(m *model.Params) *rig {
	net := fabric.NewSingleSwitch(m.WireLatency)
	a := New("hca0", 1, gx.New(m.GXRate), m, net)
	b := New("hca1", 1, gx.New(m.GXRate), m, net)
	return &rig{eng: sim.NewEngine(), m: m, src: a.Ports[0], dst: b.Ports[0]}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFlowOrderingInvariants(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	var tm Timing
	var ackAt sim.Time
	f.Send(64*1024, func(x Timing) { tm = x }, func(x Timing) { ackAt = r.eng.Now() })
	r.run(t)
	if !(tm.SchedEnd > 0 && tm.EngineEnd > tm.SchedEnd && tm.Leaves >= tm.EngineEnd) {
		t.Errorf("stage ordering broken: %+v", tm)
	}
	if tm.Delivered < tm.Leaves+m.WireLatency {
		t.Errorf("Delivered %v before Leaves+latency", tm.Delivered)
	}
	if tm.InMemory < tm.Delivered {
		t.Errorf("InMemory %v before Delivered %v", tm.InMemory, tm.Delivered)
	}
	if tm.AckArrive < tm.InMemory+m.WireLatency || ackAt != tm.AckArrive {
		t.Errorf("ack at %v, timing says %v (InMemory %v)", ackAt, tm.AckArrive, tm.InMemory)
	}
}

// driveFlows pushes count messages of n bytes over `flows` flows in
// round-robin order, all posted at time zero, and returns the time the last
// payload lands in destination memory.
func driveFlows(t *testing.T, r *rig, flows []*Flow, count, n int) sim.Time {
	t.Helper()
	var done sim.Time
	r.eng.Post(0, func() {
		for i := 0; i < count; i++ {
			flows[i%len(flows)].Send(n, func(tm Timing) {
				if tm.InMemory > done {
					done = tm.InMemory
				}
			}, nil)
		}
	})
	r.run(t)
	return done
}

func makeFlows(r *rig, k int) []*Flow {
	fs := make([]*Flow, k)
	for i := range fs {
		fs[i] = r.src.NewFlow(r.eng, r.dst)
	}
	return fs
}

func TestSingleFlowSerializesEnginePhases(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 1), 8, 256*1024)
	perMsg := sim.TransferTime(256*1024, m.EngineRate)
	if done < 8*perMsg {
		t.Errorf("8 chained transfers done at %v, must be ≥ 8×engine time %v", done, 8*perMsg)
	}
}

func TestMultiFlowEngagesEnginesInParallel(t *testing.T) {
	m := model.Default()
	r1 := newRig(m)
	multi := driveFlows(t, r1, makeFlows(r1, 4), 4, 256*1024)
	r2 := newRig(m)
	single := driveFlows(t, r2, makeFlows(r2, 1), 4, 256*1024)
	if multi >= single {
		t.Fatalf("4 flows (%v) not faster than 1 flow (%v)", multi, single)
	}
	if ratio := float64(single) / float64(multi); ratio < 1.4 {
		t.Errorf("speedup = %.2f, want ≥ 1.4", ratio)
	}
}

func TestSingleFlowThroughputNearEngineRate(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 1), 64, 1<<20)
	bw := float64(64*(1<<20)) / done.Seconds()
	if bw > m.EngineRate {
		t.Errorf("1-flow bw %.0f MB/s exceeds engine rate", bw/1e6)
	}
	if bw < 0.90*m.EngineRate {
		t.Errorf("1-flow bw %.0f MB/s, want ≥ 90%% of engine rate %.0f MB/s", bw/1e6, m.EngineRate/1e6)
	}
}

func TestFourFlowThroughputNearLinkRate(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 4), 64, 1<<20)
	bw := float64(64*(1<<20)) / done.Seconds()
	eff := m.LinkDataRate()
	if bw > m.LinkRawRate {
		t.Errorf("4-flow bw %.0f MB/s exceeds raw link", bw/1e6)
	}
	if bw < 0.93*eff {
		t.Errorf("4-flow bw %.0f MB/s, want ≥ 93%% of effective link %.0f MB/s", bw/1e6, eff/1e6)
	}
}

func TestEnginesLoadBalance(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	driveFlows(t, r, makeFlows(r, 4), 16, 1<<20)
	// 16 MB over 4 engines: no engine should carry more than half.
	for i := range r.src.SendEngines {
		if b := r.src.SendEngines[i].Bytes(); b > 8<<20 {
			t.Errorf("engine %d carried %d bytes of 16 MB: load imbalance", i, b)
		}
		if b := r.src.SendEngines[i].Bytes(); b < 2<<20 {
			t.Errorf("engine %d carried only %d bytes: idle engine", i, b)
		}
	}
}

func TestStripingOverheadVisibleAtMediumSize(t *testing.T) {
	// 16 KB in four 4 KB stripes pays 4× the per-WQE costs; one 16 KB WQE
	// pays them once. Aggregate engine-seconds must reflect it.
	m := model.Default()
	r1 := newRig(m)
	driveFlows(t, r1, makeFlows(r1, 4), 4, 4*1024)
	var striped sim.Time
	for i := range r1.src.SendEngines {
		striped += r1.src.SendEngines[i].Busy()
	}
	r2 := newRig(m)
	driveFlows(t, r2, makeFlows(r2, 1), 1, 16*1024)
	var whole sim.Time
	for i := range r2.src.SendEngines {
		whole += r2.src.SendEngines[i].Busy()
	}
	if striped <= whole+2*m.EnginePerWQE {
		t.Errorf("striped engine-seconds %v not visibly above whole-message %v", striped, whole)
	}
}

func TestAckAccounting(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	driveFlows(t, r, makeFlows(r, 1), 1, 8192)
	if r.dst.Acks != 1 {
		t.Errorf("responder Acks = %d, want 1", r.dst.Acks)
	}
	if r.src.WQEs != 1 || r.src.TxBytes != 8192 || r.dst.RxBytes != 8192 {
		t.Errorf("stats: WQEs=%d Tx=%d Rx=%d", r.src.WQEs, r.src.TxBytes, r.dst.RxBytes)
	}
}

func TestFanInSerializesAtReceiver(t *testing.T) {
	m := model.Default()
	net := fabric.NewSingleSwitch(m.WireLatency)
	eng := sim.NewEngine()
	a := New("a", 1, gx.New(m.GXRate), m, net).Ports[0]
	b := New("b", 1, gx.New(m.GXRate), m, net).Ports[0]
	c := New("c", 1, gx.New(m.GXRate), m, net).Ports[0]
	fa := a.NewFlow(eng, c)
	fb := b.NewFlow(eng, c)
	var d1, d2 sim.Time
	eng.Post(0, func() {
		fa.Send(64*1024, func(tm Timing) { d1 = tm.Delivered }, nil)
		fb.Send(64*1024, func(tm Timing) { d2 = tm.Delivered }, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("fan-in: second delivery %v not after first %v", d2, d1)
	}
}

func TestLateArrivalNotBlockedByEarlierSlowTransfer(t *testing.T) {
	// Regression for the book-at-post-time bug: a small message posted on
	// a second flow right after a huge one must not queue behind the huge
	// transfer's engine phase — it has its own engine and lane gaps.
	m := model.Default()
	r := newRig(m)
	big := r.src.NewFlow(r.eng, r.dst)
	small := r.src.NewFlow(r.eng, r.dst)
	var bigIn, smallIn sim.Time
	r.eng.Post(0, func() {
		big.Send(1<<20, func(tm Timing) { bigIn = tm.InMemory }, nil)
	})
	r.eng.Post(10*sim.Microsecond, func() {
		small.Send(512, func(tm Timing) { smallIn = tm.InMemory }, nil)
	})
	r.run(t)
	if smallIn >= bigIn {
		t.Errorf("small message delivered at %v, after the 1MB transfer (%v)", smallIn, bigIn)
	}
	if smallIn > 40*sim.Microsecond {
		t.Errorf("small message took until %v; must cut through", smallIn)
	}
}

func TestDualPortIndependentLanes(t *testing.T) {
	m := model.Default()
	net := fabric.NewSingleSwitch(m.WireLatency)
	eng := sim.NewEngine()
	a := New("a", 2, gx.New(m.GXRate), m, net)
	b := New("b", 2, gx.New(m.GXRate), m, net)
	f0 := a.Ports[0].NewFlow(eng, b.Ports[0])
	f1 := a.Ports[1].NewFlow(eng, b.Ports[1])
	var l0, l1 sim.Time
	eng.Post(0, func() {
		f0.Send(1<<20, func(tm Timing) { l0 = tm.Leaves }, nil)
		f1.Send(1<<20, func(tm Timing) { l1 = tm.Leaves }, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d := l1 - l0; d < 0 || d > l0/4 {
		t.Errorf("port 1 (%v) should finish near port 0 (%v): only GX+ is shared", l1, l0)
	}
}

func TestDeterministicTiming(t *testing.T) {
	m := model.Default()
	runOnce := func() sim.Time {
		r := newRig(m)
		return driveFlows(t, r, makeFlows(r, 4), 16, 32*1024)
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestEngineUtilization(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	var end sim.Time
	r.eng.Post(0, func() {
		f.Send(1<<20, nil, func(tm Timing) { end = tm.EngineEnd })
	})
	r.run(t)
	u := r.src.EngineUtilization(end)
	if u < 0.2 || u > 0.3 {
		t.Errorf("utilization = %g, want ~0.25 (one of four engines busy)", u)
	}
}

func TestFlowAccessors(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	if f.Src() != r.src || f.Dst() != r.dst {
		t.Error("flow endpoints wrong")
	}
}

// TestDrainedFlowHoldsNothing pins a flow's cost at zero once its WQEs
// complete. One WQE, posted with a pointer ctx and package-level callbacks,
// runs to completion on each of drainFlows fresh flows of one port in turn.
// Its pipeline state comes from the port's slab and goes back there at the
// ack, so the whole sequence allocates O(1) and leaves one released xfer and
// no queued WQE on any flow. With the state pooled per flow, each flow paid
// three allocations: its queue's ring, its xfer and its pool's slice (200
// in all here). A warm-up WQE on flow 0 grows the port's wire FIFO first;
// the 8 allocations left (budget 12) are the event queue's radix buckets,
// each allocated the first time the clock crosses its power of two.
//
// The count is the least of three samples, each on a fresh port pair after
// a collection. MemStats.Mallocs counts every malloc in the process, so an
// allocation made off the flows' path lands in whichever sample it falls in
// (a loaded coverage run once read 13 against the usual 8); a flow that
// allocated would show in every sample.
func TestDrainedFlowHoldsNothing(t *testing.T) {
	const drainFlows, budget = 64, 12
	least := uint64(math.MaxUint64)
	for range 3 {
		least = min(least, drainFlowsOnce(t, drainFlows))
	}
	if least > budget {
		t.Errorf("%d allocations for one WQE on each of %d flows, budget %d in all", least, drainFlows, budget)
	}
}

// drainFlowsOnce runs one sample of TestDrainedFlowHoldsNothing and returns
// the mallocs of its drain.
func drainFlowsOnce(t *testing.T, drainFlows int) uint64 {
	r := newRig(model.Default())
	flows := make([]Flow, drainFlows+1)
	for i := range flows {
		r.src.InitFlowAt(&flows[i], r.eng, r.dst, uint64(i+1))
	}
	acks := new(int)
	flows[0].SendCtx(4096, acks, nil, countAck)
	r.run(t)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= drainFlows; i++ {
		flows[i].SendCtx(4096, acks, nil, countAck)
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if *acks != drainFlows+1 {
		t.Fatalf("%d of %d WQEs acked", *acks, drainFlows+1)
	}
	if pooled := r.src.xfers.Free(); pooled != 1 {
		t.Errorf("port pool holds %d xfers after one WQE at a time, want 1", pooled)
	}
	for i := range flows {
		if flows[i].head != nil || flows[i].tail != nil {
			t.Fatalf("flow %d still queues a WQE after draining", i)
		}
	}
	return m1.Mallocs - m0.Mallocs
}

func countAck(a any, _ Timing) { *a.(*int)++ }

// TestPortsShareStates checks that ports sharing a pipeline-state slab
// (ShareStates, as topo.Build shares one per cluster) draw from one pool:
// a WQE on each port, one after the other, leaves one released state in
// all.
func TestPortsShareStates(t *testing.T) {
	r := newRig(model.Default())
	r.dst.ShareStates(r.src)
	if r.src.xfers == nil || r.dst.xfers != r.src.xfers {
		t.Fatal("the ports do not share one slab")
	}
	var out, back Flow
	r.src.InitFlowAt(&out, r.eng, r.dst, 1)
	r.dst.InitFlowAt(&back, r.eng, r.src, 2)
	acks := new(int)
	out.SendCtx(4096, acks, nil, countAck)
	r.run(t)
	back.SendCtx(4096, acks, nil, countAck)
	r.run(t)
	if *acks != 2 {
		t.Fatalf("%d of 2 WQEs acked", *acks)
	}
	if n := r.src.xfers.Free(); n != 1 {
		t.Errorf("shared slab holds %d released states after one WQE per port in turn, want 1", n)
	}
}

func TestErrorInjectionRetransmits(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 4 // every 4th chunk is lost
	done := driveFlows(t, r, makeFlows(r, 1), 4, 64*1024)
	if r.src.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	// Each retry stalls its transfer by the retransmit timeout.
	clean := func() sim.Time {
		r2 := newRig(m)
		return driveFlows(t, r2, makeFlows(r2, 1), 4, 64*1024)
	}()
	if done < clean+m.RetransmitTimeout {
		t.Errorf("faulty run (%v) not visibly slower than clean (%v)", done, clean)
	}
}

func TestErrorInjectionEveryChunkStillCompletes(t *testing.T) {
	// ErrorEvery=1 loses every first transmission; retries are exempt, so
	// the transfer still completes (a transient-error model, not a dead
	// link).
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 1
	done := driveFlows(t, r, makeFlows(r, 1), 1, 32*1024)
	if done <= 0 {
		t.Fatal("transfer never completed under full error injection")
	}
	if r.src.Retransmits != 2 { // 32KB = 2 chunks, each lost once
		t.Errorf("Retransmits = %d, want 2", r.src.Retransmits)
	}
}

func TestErrorInjectionPreservesDelivery(t *testing.T) {
	// Payload correctness under retransmission, end to end through MPI.
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 3
	var got sim.Time
	f := r.src.NewFlow(r.eng, r.dst)
	f.Send(128*1024, func(tm Timing) { got = tm.InMemory }, nil)
	r.run(t)
	if got == 0 {
		t.Fatal("delivery callback never fired")
	}
}

// TestCrossSwitchPaysTrunkHops: a chunk between switches books one up and
// one down trunk lane and pays a hop latency after each; at a trunk as fast
// as the link the serialization overlaps and only the two hops remain.
func TestCrossSwitchPaysTrunkHops(t *testing.T) {
	m := model.Default()
	deliver := func(perLeaf int) (Timing, *fabric.Net) {
		net := fabric.NewTwoLevel(m.WireLatency, 2, perLeaf, 1, m.LinkRawRate, fabric.RouteStatic, 0)
		eng := sim.NewEngine()
		a := New("a", 1, gx.New(m.GXRate), m, net).Ports[0]
		b := New("b", 1, gx.New(m.GXRate), m, net).Ports[0]
		b.Node = 1
		var tm Timing
		a.NewFlow(eng, b).Send(1024, func(x Timing) { tm = x }, nil)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return tm, net
	}
	same, sameNet := deliver(2)
	cross, crossNet := deliver(1)
	if want := same.Delivered + 2*m.WireLatency; cross.Delivered != want {
		t.Errorf("cross-switch Delivered = %v, want same-switch %v + 2 hops = %v", cross.Delivered, same.Delivered, want)
	}
	if items, _ := sameNet.PlaneStats(0); items != 0 {
		t.Errorf("same-switch chunk booked %d trunk lanes", items)
	}
	wire := int64(1024 + m.Packets(1024)*m.PacketHeader)
	if items, bytes := crossNet.PlaneStats(0); items != 2 || bytes != 2*wire {
		t.Errorf("cross-switch chunk booked %d trunk items / %d bytes, want 2 / %d", items, bytes, 2*wire)
	}
}

// TestTrunkPacesFanIn drives a fan-in over a two-level tree of three
// one-node leaves at a quarter-rate trunk: nodes 0 and 1 each stream to
// node 2, so both flows' chunks contend on leaf 2's downlink, and the
// trunk, not the link, paces the last delivery.
func TestTrunkPacesFanIn(t *testing.T) {
	m := model.Default()
	net := fabric.NewTwoLevel(m.WireLatency, 3, 1, 1, m.LinkRawRate/4, fabric.RouteStatic, 0)
	eng := sim.NewEngine()
	ports := make([]*Port, 3)
	for i := range ports {
		ports[i] = New("n", 1, gx.New(m.GXRate), m, net).Ports[0]
		ports[i].Node = i
	}
	var tms [2][]Timing
	for src := 0; src < 2; src++ {
		f := ports[src].NewFlow(eng, ports[2])
		eng.Post(0, func() {
			for i := 0; i < 4; i++ {
				f.Send(48*1024, func(tm Timing) { tms[src] = append(tms[src], tm) }, nil)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	items, bytes := net.PlaneStats(0)
	if items == 0 || len(tms[0]) != 4 || len(tms[1]) != 4 {
		t.Fatalf("%d trunk items, %d+%d deliveries", items, len(tms[0]), len(tms[1]))
	}
	if last, free := tms[1][3].Delivered, sim.TransferTime(bytes/2, m.LinkRawRate/4); last < free {
		t.Errorf("last delivery at %v, before the downlink could drain (%v)", last, free)
	}
}

package ib12x

// One testing.B benchmark per figure of the paper's evaluation (Figures
// 3-12), plus the ablation benches DESIGN.md calls out (A1-A4). All numbers
// are virtual-time measurements from the deterministic simulation; the
// custom metrics carry the figure's own unit (us_virtual, MBps_virtual,
// s_virtual) while ns/op merely reflects host simulation speed.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/bench"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// quick keeps the per-iteration simulation cost reasonable; shapes and
// steady-state values are unchanged (the simulator is deterministic).
const (
	latIters, latWarm = 50, 5
	bwIters, bwWarm   = 8, 1
	window            = 64
)

func reportSeries(b *testing.B, names []string, vals []float64, unit string) {
	b.Helper()
	for i, n := range names {
		b.ReportMetric(vals[i], n+"_"+unit)
	}
}

// ---- Figure 3: small-message latency ----

func BenchmarkFig03SmallLatency(b *testing.B) {
	var orig, epc []float64
	sizes := []int{1, 1024}
	for i := 0; i < b.N; i++ {
		var err error
		orig, err = bench.Latency(bench.Setup{QPs: 1, Policy: core.Original}, sizes, latIters, latWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc, err = bench.Latency(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, latIters, latWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"orig_1B", "epc_1B", "orig_1K", "epc_1K"},
		[]float64{orig[0], epc[0], orig[1], epc[1]}, "us_virtual")
}

// ---- Figure 4: large-message latency per policy ----

func BenchmarkFig04LargeLatency(b *testing.B) {
	sizes := []int{1 << 20}
	setups := []bench.Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.Binding},
		{QPs: 4, Policy: core.EvenStriping},
		{QPs: 4, Policy: core.RoundRobin},
	}
	vals := make([]float64, len(setups))
	for i := 0; i < b.N; i++ {
		for j, s := range setups {
			v, err := bench.Latency(s, sizes, 20, 2)
			if err != nil {
				b.Fatal(err)
			}
			vals[j] = v[0]
		}
	}
	reportSeries(b, []string{"orig", "epc", "binding", "striping", "rr"}, vals, "us_virtual")
}

// ---- Figure 5: small-message uni-directional bandwidth ----

func BenchmarkFig05SmallUniBW(b *testing.B) {
	sizes := []int{4096}
	var orig, epc4 float64
	for i := 0; i < b.N; i++ {
		v, err := bench.UniBandwidth(bench.Setup{QPs: 1, Policy: core.Original}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		orig = v[0]
		v, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc4 = v[0]
	}
	reportSeries(b, []string{"orig_4K", "epc_4K"}, []float64{orig, epc4}, "MBps_virtual")
}

// ---- Figure 6: large-message uni-directional bandwidth ----

func BenchmarkFig06UniBW(b *testing.B) {
	sizes := []int{16 * 1024, 1 << 20}
	var orig, epc, strp []float64
	for i := 0; i < b.N; i++ {
		var err error
		orig, err = bench.UniBandwidth(bench.Setup{QPs: 1, Policy: core.Original}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		strp, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EvenStriping}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"orig_peak", "epc_peak", "striping_16K", "epc_16K"},
		[]float64{orig[1], epc[1], strp[0], epc[0]}, "MBps_virtual")
}

// ---- Figure 7: bi-directional bandwidth ----

func BenchmarkFig07BiBW(b *testing.B) {
	sizes := []int{1 << 20}
	var orig, epc float64
	for i := 0; i < b.N; i++ {
		v, err := bench.BiBandwidth(bench.Setup{QPs: 1, Policy: core.Original}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		orig = v[0]
		v, err = bench.BiBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc = v[0]
	}
	reportSeries(b, []string{"orig_peak", "epc_peak"}, []float64{orig, epc}, "MBps_virtual")
}

// ---- Figure 8: Alltoall on 2x4 ----

func BenchmarkFig08Alltoall(b *testing.B) {
	sizes := []int{16 * 1024}
	var orig, epc float64
	for i := 0; i < b.N; i++ {
		v, err := bench.Alltoall(bench.Setup{QPs: 1, Policy: core.Original, PPN: 4}, sizes, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		orig = v[0]
		v, err = bench.Alltoall(bench.Setup{QPs: 4, Policy: core.EPC, PPN: 4}, sizes, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc = v[0]
	}
	reportSeries(b, []string{"orig_16K", "epc_16K"}, []float64{orig, epc}, "us_virtual")
}

// ---- Figures 9-12: NAS kernels ----

func benchNAS(b *testing.B, kernel, class byte, ppn int) {
	b.Helper()
	var orig, epc float64
	for i := 0; i < b.N; i++ {
		var err error
		orig, err = bench.RunNAS(kernel, class, 2, ppn, 1, core.Original)
		if err != nil {
			b.Fatal(err)
		}
		epc, err = bench.RunNAS(kernel, class, 2, ppn, 4, core.EPC)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"orig", "epc"}, []float64{orig, epc}, "s_virtual")
	b.ReportMetric(100*(orig-epc)/orig, "improve_%")
}

func BenchmarkFig09ISClassA(b *testing.B)  { benchNAS(b, 'I', 'A', 1) }
func BenchmarkFig10ISClassB(b *testing.B)  { benchNAS(b, 'I', 'B', 1) }
func BenchmarkFig11FTClassA(b *testing.B)  { benchNAS(b, 'F', 'A', 1) }
func BenchmarkFig12FTClassB(b *testing.B)  { benchNAS(b, 'F', 'B', 1) }
func BenchmarkFig09ISClassA4(b *testing.B) { benchNAS(b, 'I', 'A', 2) }
func BenchmarkFig11FTClassA4(b *testing.B) { benchNAS(b, 'F', 'A', 2) }

// ---- Ablations (DESIGN.md A1-A4) ----

// BenchmarkAblA1RendezvousThreshold sweeps the eager/rendezvous (and
// striping) threshold — why the paper's 16 KB is a sensible choice.
func BenchmarkAblA1RendezvousThreshold(b *testing.B) {
	sizes := []int{16 * 1024}
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, thr := range []int{4 << 10, 16 << 10, 64 << 10} {
			m := model.Default()
			m.RendezvousThreshold = thr
			v, err := bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC, Model: m}, sizes, window, bwIters, bwWarm)
			if err != nil {
				b.Fatal(err)
			}
			vals["thr_"+sizeName(thr)] = v[0]
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k+"_MBps_virtual")
	}
}

// BenchmarkAblA2EnginesPerPort sweeps the hardware's engine count — when
// extra QPs stop helping.
func BenchmarkAblA2EnginesPerPort(b *testing.B) {
	sizes := []int{1 << 20}
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, eng := range []int{1, 2, 4, 8} {
			m := model.Default()
			m.SendEnginesPerPort = eng
			m.RecvEnginesPerPort = eng
			v, err := bench.UniBandwidth(bench.Setup{QPs: eng, Policy: core.EPC, Model: m}, sizes, window, bwIters, bwWarm)
			if err != nil {
				b.Fatal(err)
			}
			vals["engines_"+itoa(eng)] = v[0]
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k+"_MBps_virtual")
	}
}

// BenchmarkAblA3RailAxes compares scaling the rail count across QPs, ports
// and HCAs (the §4.1 "future combinations").
func BenchmarkAblA3RailAxes(b *testing.B) {
	sizes := []int{1 << 20}
	type axis struct {
		name  string
		setup bench.Setup
	}
	axes := []axis{
		{"qps4", bench.Setup{QPs: 4, Policy: core.EPC}},
		{"ports2", bench.Setup{QPs: 4, Ports: 2, Policy: core.EPC}},
		{"hcas2", bench.Setup{QPs: 4, Ports: 2, HCAs: 2, Policy: core.EPC}},
	}
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, a := range axes {
			v, err := bench.UniBandwidth(a.setup, sizes, window, bwIters, bwWarm)
			if err != nil {
				b.Fatal(err)
			}
			vals[a.name] = v[0]
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k+"_MBps_virtual")
	}
}

// BenchmarkAblA4MinStripe sweeps the planner's minimum stripe size — the
// assembly/disassembly cost guard of §3.2.1.
func BenchmarkAblA4MinStripe(b *testing.B) {
	sizes := []int{32 * 1024}
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, ms := range []int{1 << 10, 4 << 10, 16 << 10} {
			m := model.Default()
			m.MinStripe = ms
			v, err := bench.Latency(bench.Setup{QPs: 4, Policy: core.EvenStriping, Model: m}, sizes, 20, 2)
			if err != nil {
				b.Fatal(err)
			}
			vals["min_"+sizeName(ms)] = v[0]
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k+"_us_virtual")
	}
}

// ---- Lane-collective rows (cmd/perfgate) ----

// benchLaneAllgather is the lane-vs-striped perfgate pair: the same 256KB
// Allgather on the paper's 2x2 EPC configuration under either algorithm
// family. The virtual per-op time is the figure of merit; ns/op tracks the
// host cost of the lane machinery itself.
func benchLaneAllgather(b *testing.B, alg mpi.CollAlg) {
	b.Helper()
	var v []float64
	for i := 0; i < b.N; i++ {
		var err error
		v, err = bench.Collective(bench.CollAllgather,
			bench.Setup{QPs: 4, Policy: core.EPC, PPN: 2, CollAlg: alg},
			[]int{256 << 10}, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{alg.String() + "_256K"}, []float64{v[0]}, "us_virtual")
}

func BenchmarkLaneAllgather(b *testing.B)        { benchLaneAllgather(b, mpi.CollLane) }
func BenchmarkLaneAllgatherStriped(b *testing.B) { benchLaneAllgather(b, mpi.CollStriped) }

// ---- Eager-channel rows (cmd/perfgate) ----

// benchSmallMsg is the eager-channel perfgate pair: the same 1B/1KB
// ping-pong on the paper's EPC 4QP configuration under either eager
// channel. The virtual latency is the figure of merit; allocs/op is gated
// (the ring's slab and header cache are per-connection state, so the ring
// must not add per-message allocations over the send/recv row).
func benchSmallMsg(b *testing.B, proto adi.EagerProto) {
	b.Helper()
	sizes := []int{1, 1024}
	var v []float64
	for i := 0; i < b.N; i++ {
		var err error
		v, err = bench.Latency(bench.Setup{QPs: 4, Policy: core.EPC, EagerProto: proto}, sizes, latIters, latWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"epc_1B", "epc_1K"}, v, "us_virtual")
}

func BenchmarkSmallMsgLatency(b *testing.B)     { benchSmallMsg(b, adi.EagerSendRecv) }
func BenchmarkSmallMsgLatencyRDMA(b *testing.B) { benchSmallMsg(b, adi.EagerRDMAWrite) }

// BenchmarkFig06Integrity repeats the Figure 6 uni-directional bandwidth
// sweep with end-to-end payload verification armed (DESIGN.md §17). The
// virtual-time metrics show the modeled checksum cost; the host-side
// allocs/op is gated by perfgate against BenchmarkFig06UniBW's — checksum
// capture and verification work in place and must not allocate per payload.
func BenchmarkFig06Integrity(b *testing.B) {
	sizes := []int{16 * 1024, 1 << 20}
	var orig, epc, strp []float64
	for i := 0; i < b.N; i++ {
		var err error
		orig, err = bench.UniBandwidth(bench.Setup{QPs: 1, Policy: core.Original, Integrity: adi.IntegrityVerify},
			sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC, Integrity: adi.IntegrityVerify},
			sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		strp, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EvenStriping, Integrity: adi.IntegrityVerify},
			sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"orig_peak", "epc_peak", "striping_16K", "epc_16K"},
		[]float64{orig[1], epc[1], strp[0], epc[0]}, "MBps_virtual")
}

// BenchmarkFig06ThreeTier repeats the Figure 6 uni-directional bandwidth
// sweep over a routed 1:1 three-tier tree (2 nodes, 1 per leaf, 2 spines,
// adaptive selection) instead of the flat switch. The virtual-time metrics
// must match flat Fig06 within noise (the trunks are not oversubscribed);
// the host-side allocs/op is gated by perfgate against BenchmarkFig06UniBW —
// the per-chunk route walk books lanes in place and must not allocate.
func BenchmarkFig06ThreeTier(b *testing.B) {
	sizes := []int{16 * 1024, 1 << 20}
	tree := func(qps int, policy core.Kind) bench.Setup {
		return bench.Setup{QPs: qps, Policy: policy,
			NodesPerSwitch: 1, Tiers: 3, SpinesPerPod: 2, Routing: fabric.RouteAdaptive}
	}
	var orig, epc, strp []float64
	for i := 0; i < b.N; i++ {
		var err error
		orig, err = bench.UniBandwidth(tree(1, core.Original), sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		epc, err = bench.UniBandwidth(tree(4, core.EPC), sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		strp, err = bench.UniBandwidth(tree(4, core.EvenStriping), sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, []string{"orig_peak", "epc_peak", "striping_16K", "epc_16K"},
		[]float64{orig[1], epc[1], strp[0], epc[0]}, "MBps_virtual")
}

// BenchmarkSimulatorThroughput measures host-side simulation speed: virtual
// seconds simulated per wall second for a saturated bandwidth run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sizes := []int{1 << 20}
	var virtual sim.Time
	for i := 0; i < b.N; i++ {
		v, err := bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		_ = v
		virtual += sim.FromSeconds(float64(bwIters*window*sizes[0]) / (v[0] * 1e6))
	}
	b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds(), "virtual_s/wall_s")
}

func sizeName(n int) string {
	if n >= 1024 {
		return itoa(n/1024) + "K"
	}
	return itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- Supplementary benches: the beyond-the-paper features ----

// BenchmarkExtRGETRendezvous compares the two rendezvous engines at 64 KB,
// where RGET's saved CTS flight shows most.
func BenchmarkExtRGETRendezvous(b *testing.B) {
	sizes := []int{64 * 1024}
	var put, get float64
	for i := 0; i < b.N; i++ {
		v, err := bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		put = v[0]
		v, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC, Rndv: adi.RndvRead}, sizes, window, bwIters, bwWarm)
		if err != nil {
			b.Fatal(err)
		}
		get = v[0]
	}
	reportSeries(b, []string{"rput_64K", "rget_64K"}, []float64{put, get}, "MBps_virtual")
}

// BenchmarkExtOversubscription measures the 4:1 fat-tree penalty on a
// bisection exchange.
func BenchmarkExtOversubscription(b *testing.B) {
	m := model.Default()
	run := func(trunk float64) float64 {
		s := bench.Setup{QPs: 4, Policy: core.EPC, Nodes: 8, NodesPerSwitch: 4, TrunkRate: trunk}
		var worst float64
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			p := c.Size()
			peer := (c.Rank() + p/2) % p
			c.Barrier()
			t0 := c.Time()
			for it := 0; it < bwIters; it++ {
				c.SendrecvN(peer, 0, nil, 1<<20, peer, 0, nil, 1<<20)
			}
			el := []int64{int64(c.Time() - t0)}
			c.AllreduceInt64(el, mpi.Max)
			if c.Rank() == 0 {
				worst = sim.Time(el[0]).Micros() / bwIters
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return worst
	}
	var full, quarter float64
	for i := 0; i < b.N; i++ {
		full = run(m.LinkRawRate * 4)
		quarter = run(m.LinkRawRate)
	}
	reportSeries(b, []string{"trunk_1to1", "trunk_4to1"}, []float64{full, quarter}, "us_virtual")
}

// BenchmarkExtFaultyFabric measures retransmission cost at a 1-in-16 chunk
// loss rate.
func BenchmarkExtFaultyFabric(b *testing.B) {
	run := func(fault int64) float64 {
		cfg := bench.Setup{QPs: 4, Policy: core.EPC}.Config()
		if fault > 0 {
			cfg.Chaos = chaos.LegacyEveryN(fault)
		}
		var el float64
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				t0 := c.Time()
				for i := 0; i < 8; i++ {
					c.SendN(1, i, nil, 1<<20)
				}
				el = (c.Time() - t0).Seconds()
			} else {
				for i := 0; i < 8; i++ {
					c.RecvN(0, i, nil, 1<<20)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return 8 * (1 << 20) / el / 1e6
	}
	var clean, lossy float64
	for i := 0; i < b.N; i++ {
		clean = run(0)
		lossy = run(16)
	}
	reportSeries(b, []string{"clean", "lossy_1in16"}, []float64{clean, lossy}, "MBps_virtual")
}

// BenchmarkExtLUWavefront times the small-message pipelined kernel.
func BenchmarkExtLUWavefront(b *testing.B) { benchNAS(b, 'L', 'W', 2) }

// BenchmarkExtOneSided measures striped one-sided Put bandwidth.
func BenchmarkExtOneSided(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		cfg := bench.Setup{QPs: 4, Policy: core.EPC}.Config()
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			w := c.WinCreate(nil, 1<<20)
			c.Barrier()
			t0 := c.Time()
			if c.Rank() == 0 {
				for it := 0; it < 16; it++ {
					w.PutN(1, 0, nil, 1<<20)
				}
			}
			w.Fence()
			if c.Rank() == 0 {
				bw = 16 * float64(1<<20) / (c.Time() - t0).Seconds() / 1e6
			}
			w.Free()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bw, "put_MBps_virtual")
}

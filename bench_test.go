package ib12x

// One testing.B benchmark per figure of the paper's evaluation (Figures
// 3-12), plus the ablation benches DESIGN.md calls out (A1-A4). All numbers
// are virtual-time measurements from the deterministic simulation; the
// custom metrics carry the figure's own unit (us_virtual, MBps_virtual,
// s_virtual) while ns/op merely reflects host simulation speed.
//
// Run with: go test -bench=. -benchmem

import (
	"strconv"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/bench"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
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

// figBody is one iteration of a figure benchmark: it runs the figure's
// sweeps and returns the series the benchmark reports. The bodies below are
// shared with TestAllocationInvariants, which counts what one call allocates.
type figBody func() ([]float64, error)

func runFig(b *testing.B, body figBody, unit string, names ...string) {
	b.Helper()
	var vals []float64
	for i := 0; i < b.N; i++ {
		var err error
		if vals, err = body(); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, names, vals, unit)
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

func fig04() ([]float64, error) {
	sizes := []int{1 << 20}
	setups := []bench.Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.Binding},
		{QPs: 4, Policy: core.EvenStriping},
		{QPs: 4, Policy: core.RoundRobin},
	}
	vals := make([]float64, len(setups))
	for j, s := range setups {
		v, err := bench.Latency(s, sizes, 20, 2)
		if err != nil {
			return nil, err
		}
		vals[j] = v[0]
	}
	return vals, nil
}

func BenchmarkFig04LargeLatency(b *testing.B) {
	runFig(b, fig04, "us_virtual", "orig", "epc", "binding", "striping", "rr")
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

// fig06 is the three Figure 6 sweeps on the given job: the zero job is the
// paper's flat switch; the allocation test also runs the integrity and
// three-tier variants.
func fig06(job mpi.Config) figBody {
	return func() ([]float64, error) {
		sizes := []int{16 * 1024, 1 << 20}
		var bw [3][]float64
		for i, s := range []bench.Setup{
			{QPs: 1, Policy: core.Original, Job: job},
			{QPs: 4, Policy: core.EPC, Job: job},
			{QPs: 4, Policy: core.EvenStriping, Job: job},
		} {
			var err error
			if bw[i], err = bench.UniBandwidth(s, sizes, window, bwIters, bwWarm); err != nil {
				return nil, err
			}
		}
		orig, epc, strp := bw[0], bw[1], bw[2]
		return []float64{orig[1], epc[1], strp[0], epc[0]}, nil
	}
}

func BenchmarkFig06UniBW(b *testing.B) {
	runFig(b, fig06(mpi.Config{}), "MBps_virtual", "orig_peak", "epc_peak", "striping_16K", "epc_16K")
}

// ---- Figure 7: bi-directional bandwidth ----

func fig07() ([]float64, error) {
	sizes := []int{1 << 20}
	orig, err := bench.BiBandwidth(bench.Setup{QPs: 1, Policy: core.Original}, sizes, window, bwIters, bwWarm)
	if err != nil {
		return nil, err
	}
	epc, err := bench.BiBandwidth(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, window, bwIters, bwWarm)
	if err != nil {
		return nil, err
	}
	return []float64{orig[0], epc[0]}, nil
}

func BenchmarkFig07BiBW(b *testing.B) {
	runFig(b, fig07, "MBps_virtual", "orig_peak", "epc_peak")
}

// ---- Figure 8: Alltoall on 2x4 ----

func fig08() ([]float64, error) {
	sizes := []int{16 * 1024}
	orig, err := bench.Alltoall(bench.Setup{QPs: 1, Policy: core.Original, Job: mpi.Config{ProcsPerNode: 4}}, sizes, bwIters, bwWarm)
	if err != nil {
		return nil, err
	}
	epc, err := bench.Alltoall(bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{ProcsPerNode: 4}}, sizes, bwIters, bwWarm)
	if err != nil {
		return nil, err
	}
	return []float64{orig[0], epc[0]}, nil
}

func BenchmarkFig08Alltoall(b *testing.B) {
	runFig(b, fig08, "us_virtual", "orig_16K", "epc_16K")
}

// ---- Figures 9-12: NAS kernels ----

func benchNAS(b *testing.B, kernel string, class byte, ppn int) {
	b.Helper()
	var orig, epc float64
	for i := 0; i < b.N; i++ {
		o, err := bench.RunNAS(mpi.Config{ProcsPerNode: ppn, QPsPerPort: 1, Policy: core.Original}, kernel, class, false)
		if err != nil {
			b.Fatal(err)
		}
		e, err := bench.RunNAS(mpi.Config{ProcsPerNode: ppn, QPsPerPort: 4, Policy: core.EPC}, kernel, class, false)
		if err != nil {
			b.Fatal(err)
		}
		orig, epc = o.Elapsed.Seconds(), e.Elapsed.Seconds()
	}
	reportSeries(b, []string{"orig", "epc"}, []float64{orig, epc}, "s_virtual")
	b.ReportMetric(100*(orig-epc)/orig, "improve_%")
}

func BenchmarkFig09ISClassA(b *testing.B)  { benchNAS(b, "is", 'A', 1) }
func BenchmarkFig10ISClassB(b *testing.B)  { benchNAS(b, "is", 'B', 1) }
func BenchmarkFig11FTClassA(b *testing.B)  { benchNAS(b, "ft", 'A', 1) }
func BenchmarkFig12FTClassB(b *testing.B)  { benchNAS(b, "ft", 'B', 1) }
func BenchmarkFig09ISClassA4(b *testing.B) { benchNAS(b, "is", 'A', 2) }
func BenchmarkFig11FTClassA4(b *testing.B) { benchNAS(b, "ft", 'A', 2) }

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
			v, err := bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{Model: m}}, sizes, window, bwIters, bwWarm)
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
			v, err := bench.UniBandwidth(bench.Setup{QPs: eng, Policy: core.EPC, Job: mpi.Config{Model: m}}, sizes, window, bwIters, bwWarm)
			if err != nil {
				b.Fatal(err)
			}
			vals["engines_"+strconv.Itoa(eng)] = v[0]
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
		{"ports2", bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{Ports: 2}}},
		{"hcas2", bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{Ports: 2, HCAs: 2}}},
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
			v, err := bench.Latency(bench.Setup{QPs: 4, Policy: core.EvenStriping, Job: mpi.Config{Model: m}}, sizes, 20, 2)
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

// ---- Small-message ping-pong ----

// smallMsg is the 1B/1KB ping-pong on the paper's EPC 4QP configuration under
// the given eager channel.
func smallMsg(proto adi.EagerProto) figBody {
	return func() ([]float64, error) {
		return bench.Latency(bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{EagerProto: proto}}, []int{1, 1024}, latIters, latWarm)
	}
}

func BenchmarkSmallMsgLatency(b *testing.B) {
	runFig(b, smallMsg(adi.EagerSendRecv), "us_virtual", "epc_1B", "epc_1K")
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
		return strconv.Itoa(n/1024) + "K"
	}
	return strconv.Itoa(n)
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
		v, err = bench.UniBandwidth(bench.Setup{QPs: 4, Policy: core.EPC, Job: mpi.Config{Rndv: adi.RndvRead}}, sizes, window, bwIters, bwWarm)
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
		cfg := mpi.Config{Nodes: 8, NodesPerSwitch: 4, TrunkRate: trunk, QPsPerPort: 4, Policy: core.EPC}
		var worst float64
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
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
		cfg := mpi.Config{QPsPerPort: 4, Policy: core.EPC}
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
func BenchmarkExtLUWavefront(b *testing.B) { benchNAS(b, "lu", 'W', 2) }

// BenchmarkExtOneSided measures striped one-sided Put bandwidth.
func BenchmarkExtOneSided(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		cfg := mpi.Config{QPsPerPort: 4, Policy: core.EPC}
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

package bench

import (
	"fmt"

	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/stats"
)

// FigOpts controls figure regeneration. The zero value gives the defaults
// used by cmd/reproduce; Quick substitutes smaller problems for tests.
type FigOpts struct {
	LatIters, LatWarmup int // ping-pong iterations (default 200/20)
	BWIters, BWWarmup   int // bandwidth iterations (default 20/2)
	Window              int // bandwidth window (default 64, as §4.2)
	Quick               bool
}

func (o FigOpts) defaults() FigOpts {
	if o.LatIters == 0 {
		o.LatIters = 200
	}
	if o.LatWarmup == 0 {
		o.LatWarmup = 20
	}
	if o.BWIters == 0 {
		o.BWIters = 20
	}
	if o.BWWarmup == 0 {
		o.BWWarmup = 2
	}
	if o.Window == 0 {
		o.Window = 64
	}
	if o.Quick {
		o.LatIters, o.LatWarmup = 30, 3
		o.BWIters, o.BWWarmup = 5, 1
	}
	return o
}

// addSweep runs fn for one setup and adds the points to the table.
func addSweep(t *stats.Table, name string, sizes []int, vals []float64) {
	for i, n := range sizes {
		t.Add(name, n, vals[i])
	}
}

// Fig3 regenerates Figure 3: small-message latency — the enhanced design
// adds no overhead over the original for latency-bound traffic.
func Fig3(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{1, 4, 16, 64, 256, 1024, 4096}
	t := &stats.Table{Title: "Figure 3: MPI latency, small messages", XLabel: "Size", Unit: "us"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 2, Policy: core.EPC},
		{QPs: 4, Policy: core.EPC},
	} {
		vals, err := Latency(s, sizes, o.LatIters, o.LatWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Fig4 regenerates Figure 4: large-message latency under each scheduling
// policy; EPC and even striping lead, binding and round robin trail.
func Fig4(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 64 * 1024, 256 * 1024, 1 << 20}
	t := &stats.Table{Title: "Figure 4: MPI latency, large messages", XLabel: "Size", Unit: "us"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.Binding},
		{QPs: 4, Policy: core.EvenStriping},
		{QPs: 4, Policy: core.RoundRobin},
	} {
		vals, err := Latency(s, sizes, o.LatIters, o.LatWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Fig5 regenerates Figure 5: small/medium-message uni-directional
// bandwidth; round robin (and hence EPC) engages multiple engines past 1KB.
func Fig5(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{64, 256, 1024, 2048, 4096, 8192}
	t := &stats.Table{Title: "Figure 5: uni-directional bandwidth, small messages", XLabel: "Size", Unit: "MB/s"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 2, Policy: core.EPC},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.RoundRobin},
	} {
		vals, err := UniBandwidth(s, sizes, o.Window, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Fig6 regenerates Figure 6: large-message uni-directional bandwidth; the
// peak comparison (2745 vs 1661 MB/s) plus even striping's medium-size dip.
func Fig6(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1 << 20}
	t := &stats.Table{Title: "Figure 6: uni-directional bandwidth, large messages", XLabel: "Size", Unit: "MB/s"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.EvenStriping},
	} {
		vals, err := UniBandwidth(s, sizes, o.Window, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Fig7 regenerates Figure 7: bi-directional bandwidth (5362 vs ~3 GB/s).
func Fig7(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1 << 20}
	t := &stats.Table{Title: "Figure 7: bi-directional bandwidth, large messages", XLabel: "Size", Unit: "MB/s"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
		{QPs: 4, Policy: core.EvenStriping},
	} {
		vals, err := BiBandwidth(s, sizes, o.Window, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Fig8 regenerates Figure 8: MPI_Alltoall (Pallas) on the 2×4
// configuration; the collective marker (EPC) wins even at medium sizes.
func Fig8(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}
	t := &stats.Table{Title: "Figure 8: Alltoall, 2x4 configuration", XLabel: "Size", Unit: "us"}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original, PPN: 4},
		{QPs: 4, Policy: core.RoundRobin, PPN: 4},
		{QPs: 4, Policy: core.EvenStriping, PPN: 4},
		{QPs: 4, Policy: core.EPC, PPN: 4},
	} {
		vals, err := Alltoall(s, sizes, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// NASFig regenerates one NAS figure: execution time versus process count
// (2, 4, 8 on two nodes, as 2×1, 2×2, 2×4) for the single-rail original and
// 4-QP EPC. kernel is "is" or "ft"; class 'S'..'C'.
func NASFig(kernel string, class byte, o FigOpts) (*stats.Table, error) {
	return nasFig(harness.Workers(), kernel, class, o)
}

// nasFig is NASFig with an explicit worker count. Each cell is its own
// simulation, so the six fan out over the harness pool; the determinism
// suite pins serial/parallel bit-identity on it.
func nasFig(workers int, kernel string, class byte, o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	title := map[string]string{"is": "Integer Sort", "ft": "Fourier Transform"}[kernel]
	t := &stats.Table{
		Title:  fmt.Sprintf("NAS %s, class %c", title, class),
		XLabel: "Procs", Unit: "s",
	}
	var cells []Setup
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
	} {
		for _, ppn := range []int{1, 2, 4} {
			s.PPN = ppn
			cells = append(cells, s)
		}
	}
	secs, err := harness.MapN(workers, cells, func(s Setup) (float64, error) {
		return nasSeconds(s, kernel, class)
	})
	if err != nil {
		return nil, err
	}
	for i, s := range cells {
		t.Add(s.Label(), 2*s.PPN, secs[i])
	}
	return t, nil
}

// nasSeconds runs one synthetic NAS cell of a figure table and returns its
// timed region in virtual seconds. A cell that fails verification is an
// error: a table must not print a time for a wrong answer.
func nasSeconds(s Setup, kernel string, class byte) (float64, error) {
	cfg := s.Config()
	res, err := RunNAS(cfg, kernel, class, false)
	if err == nil && !res.Verified {
		err = fmt.Errorf("bench: NAS %s class %c on %d ranks failed verification", kernel, class, cfg.Size())
	}
	return res.Elapsed.Seconds(), err
}

// Headline reports the paper's §1 summary numbers: the large-message
// latency improvement and the uni-/bi-directional bandwidth peaks and
// gains of EPC over the original single-rail design.
type Headline struct {
	LatencyImprovePct float64 // 1MB ping-pong latency improvement
	UniPeakOrig       float64 // MB/s
	UniPeakEPC        float64
	UniGainPct        float64
	BiPeakOrig        float64
	BiPeakEPC         float64
	BiGainPct         float64
}

// Measure computes the headline numbers at 1 MB.
func (o FigOpts) Measure() (Headline, error) {
	o = o.defaults()
	sizes := []int{1 << 20}
	var h Headline
	origL, err := Latency(Setup{QPs: 1, Policy: core.Original}, sizes, o.LatIters, o.LatWarmup)
	if err != nil {
		return h, err
	}
	epcL, err := Latency(Setup{QPs: 4, Policy: core.EPC}, sizes, o.LatIters, o.LatWarmup)
	if err != nil {
		return h, err
	}
	h.LatencyImprovePct = stats.Improvement(origL[0], epcL[0])

	origU, err := UniBandwidth(Setup{QPs: 1, Policy: core.Original}, sizes, o.Window, o.BWIters, o.BWWarmup)
	if err != nil {
		return h, err
	}
	epcU, err := UniBandwidth(Setup{QPs: 4, Policy: core.EPC}, sizes, o.Window, o.BWIters, o.BWWarmup)
	if err != nil {
		return h, err
	}
	h.UniPeakOrig, h.UniPeakEPC = origU[0], epcU[0]
	h.UniGainPct = stats.Gain(origU[0], epcU[0])

	origB, err := BiBandwidth(Setup{QPs: 1, Policy: core.Original}, sizes, o.Window, o.BWIters, o.BWWarmup)
	if err != nil {
		return h, err
	}
	epcB, err := BiBandwidth(Setup{QPs: 4, Policy: core.EPC}, sizes, o.Window, o.BWIters, o.BWWarmup)
	if err != nil {
		return h, err
	}
	h.BiPeakOrig, h.BiPeakEPC = origB[0], epcB[0]
	h.BiGainPct = stats.Gain(origB[0], epcB[0])
	return h, nil
}

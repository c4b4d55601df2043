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

// bw and lat are the iteration plans of the figures' bandwidth and latency
// cells.
func (o FigOpts) bw() loop  { return loop{iters: o.BWIters, warmup: o.BWWarmup, window: o.Window} }
func (o FigOpts) lat() loop { return loop{iters: o.LatIters, warmup: o.LatWarmup} }

// column is one series of a table: its legend and the setup its cells run.
// at, when set, measures the column's cells in place of the table's
// measurement — for a column that varies more than its setup.
type column struct {
	name string
	s    Setup
	at   func(Setup, int) (float64, error)
}

// labeled makes one column per setup, legend Setup.Label.
func labeled(setups ...Setup) []column {
	cols := make([]column, len(setups))
	for i, s := range setups {
		cols[i] = column{name: s.Label(), s: s}
	}
	return cols
}

// sweep measures every (column, x) cell and adds it to t. Each cell is its
// own simulation, so the cells fan out over the harness pool; t is filled
// column by column, x by x, exactly as a serial loop would, and the lowest
// failing cell's error is returned.
func sweep(t *stats.Table, cols []column, xs []int, at func(Setup, int) (float64, error)) error {
	type cell struct{ col, x int }
	cells := make([]cell, 0, len(cols)*len(xs))
	for c := range cols {
		for _, x := range xs {
			cells = append(cells, cell{c, x})
		}
	}
	vals, err := harness.Map(cells, func(cl cell) (float64, error) {
		col := cols[cl.col]
		if col.at != nil {
			return col.at(col.s, cl.x)
		}
		return at(col.s, cl.x)
	})
	if err != nil {
		return err
	}
	for i, cl := range cells {
		t.Add(cols[cl.col].name, cl.x, vals[i])
	}
	return nil
}

// table declares one figure: a titled table, its columns and x-values, and
// the measurement of one cell.
func table(title, xlabel, unit string, cols []column, xs []int, at func(Setup, int) (float64, error)) (*stats.Table, error) {
	t := &stats.Table{Title: title, XLabel: xlabel, Unit: unit}
	if err := sweep(t, cols, xs, at); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig3 regenerates Figure 3: small-message latency — the enhanced design
// adds no overhead over the original for latency-bound traffic.
func Fig3(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 3: MPI latency, small messages", "Size", "us",
		labeled(Setup{QPs: 1, Policy: core.Original}, Setup{QPs: 2, Policy: core.EPC}, Setup{QPs: 4, Policy: core.EPC}),
		[]int{1, 4, 16, 64, 256, 1024, 4096}, o.lat().latency)
}

// Fig4 regenerates Figure 4: large-message latency under each scheduling
// policy; EPC and even striping lead, binding and round robin trail.
func Fig4(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 4: MPI latency, large messages", "Size", "us",
		labeled(
			Setup{QPs: 1, Policy: core.Original},
			Setup{QPs: 4, Policy: core.EPC},
			Setup{QPs: 4, Policy: core.Binding},
			Setup{QPs: 4, Policy: core.EvenStriping},
			Setup{QPs: 4, Policy: core.RoundRobin},
		),
		[]int{16 * 1024, 64 * 1024, 256 * 1024, 1 << 20}, o.lat().latency)
}

// Fig5 regenerates Figure 5: small/medium-message uni-directional
// bandwidth; round robin (and hence EPC) engages multiple engines past 1KB.
func Fig5(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 5: uni-directional bandwidth, small messages", "Size", "MB/s",
		labeled(
			Setup{QPs: 1, Policy: core.Original},
			Setup{QPs: 2, Policy: core.EPC},
			Setup{QPs: 4, Policy: core.EPC},
			Setup{QPs: 4, Policy: core.RoundRobin},
		),
		[]int{64, 256, 1024, 2048, 4096, 8192}, o.bw().uniBW)
}

// largeSizes are the message sizes of Figures 6 and 7 and the tables
// built on them.
var largeSizes = []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1 << 20}

// fig67Columns are the series of Figures 6 and 7.
func fig67Columns() []column {
	return labeled(Setup{QPs: 1, Policy: core.Original}, Setup{QPs: 4, Policy: core.EPC}, Setup{QPs: 4, Policy: core.EvenStriping})
}

// Fig6 regenerates Figure 6: large-message uni-directional bandwidth; the
// peak comparison (2745 vs 1661 MB/s) plus even striping's medium-size dip.
func Fig6(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 6: uni-directional bandwidth, large messages", "Size", "MB/s",
		fig67Columns(), largeSizes, o.bw().uniBW)
}

// Fig7 regenerates Figure 7: bi-directional bandwidth (5362 vs ~3 GB/s).
func Fig7(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 7: bi-directional bandwidth, large messages", "Size", "MB/s",
		fig67Columns(), largeSizes, o.bw().biBW)
}

// Fig8 regenerates Figure 8: MPI_Alltoall (Pallas) on the 2×4
// configuration; the collective marker (EPC) wins even at medium sizes.
func Fig8(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Figure 8: Alltoall, 2x4 configuration", "Size", "us",
		labeled(
			Setup{QPs: 1, Policy: core.Original, PPN: 4},
			Setup{QPs: 4, Policy: core.RoundRobin, PPN: 4},
			Setup{QPs: 4, Policy: core.EvenStriping, PPN: 4},
			Setup{QPs: 4, Policy: core.EPC, PPN: 4},
		),
		[]int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}, o.bw().collective(CollAlltoall))
}

// NASFig regenerates one NAS figure: execution time versus process count
// (2, 4, 8 on two nodes, as 2×1, 2×2, 2×4) for the single-rail original and
// 4-QP EPC. kernel is "is" or "ft"; class 'S'..'C'.
func NASFig(kernel string, class byte, o FigOpts) (*stats.Table, error) {
	title := map[string]string{"is": "Integer Sort", "ft": "Fourier Transform"}[kernel]
	return table(fmt.Sprintf("NAS %s, class %c", title, class), "Procs", "s",
		labeled(Setup{QPs: 1, Policy: core.Original}, Setup{QPs: 4, Policy: core.EPC}),
		[]int{2, 4, 8}, func(s Setup, procs int) (float64, error) {
			s.PPN = procs / 2
			return nasSeconds(s, kernel, class)
		})
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
	var h Headline
	var v [3][2]float64 // latency, uni, bi × original, EPC
	for i, at := range []func(Setup, int) (float64, error){o.lat().latency, o.bw().uniBW, o.bw().biBW} {
		t := new(stats.Table)
		if err := sweep(t, labeled(Setup{QPs: 1, Policy: core.Original}, Setup{QPs: 4, Policy: core.EPC}), []int{1 << 20}, at); err != nil {
			return h, err
		}
		v[i] = [2]float64{t.Series[0].Points[0].Value, t.Series[1].Points[0].Value}
	}
	h.LatencyImprovePct = stats.Improvement(v[0][0], v[0][1])
	h.UniPeakOrig, h.UniPeakEPC = v[1][0], v[1][1]
	h.UniGainPct = stats.Gain(v[1][0], v[1][1])
	h.BiPeakOrig, h.BiPeakEPC = v[2][0], v[2][1]
	h.BiGainPct = stats.Gain(v[2][0], v[2][1])
	return h, nil
}

// Command reproduce regenerates every figure of the paper "High Performance
// MPI on IBM 12x InfiniBand Architecture" (IPDPS 2007) on the simulated
// testbed, printing each as a text table plus the paper-vs-measured summary.
//
// Usage:
//
//	reproduce -fig all          # everything (default)
//	reproduce -fig 6            # one figure
//	reproduce -fig headline     # the §1 summary numbers
//	reproduce -extra            # supplementary tables beyond the paper
//	reproduce -quick            # reduced iteration counts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ib12x/internal/bench"
	"ib12x/internal/harness"
	"ib12x/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3..12, headline, or all")
	quickFlag := flag.Bool("quick", false, "reduced iteration counts (faster, slightly noisier pipelines)")
	extra := flag.Bool("extra", false, "also print the supplementary tables beyond the paper's figures")
	flag.Parse()

	o := bench.FigOpts{Quick: *quickFlag}
	if err := run(os.Stdout, *fig, o); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
	if *extra {
		if err := supplementary(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	}
}

// supplementary prints the beyond-the-paper tables: the rest of the
// collective suite, the stencil pattern and scalability sweep from the
// conclusions' future work, the rendezvous-protocol comparison, the
// one-rail-dead bandwidth sweep under the self-healing reliability layer,
// the lane-decomposed vs transport-striped collective ablation, the
// RDMA-write eager ring vs send/recv small-message latency floor, the
// pin-down registration cache cold/warm bandwidth split, and the "no
// degradation on other NAS kernels" check.
func supplementary(w io.Writer, o bench.FigOpts) error {
	gens := []func(bench.FigOpts) (*stats.Table, error){
		func(o bench.FigOpts) (*stats.Table, error) { return bench.CollectiveTable(bench.CollBcast, o) },
		func(o bench.FigOpts) (*stats.Table, error) { return bench.CollectiveTable(bench.CollAllgather, o) },
		func(o bench.FigOpts) (*stats.Table, error) { return bench.CollectiveTable(bench.CollAllreduce, o) },
		bench.StencilTable,
		bench.ScalingTable,
		bench.RendezvousTable,
		bench.AlltoallAlgTable,
		bench.OversubscriptionTable,
		bench.HCAGenerationTable,
		bench.DegradedRailTable,
		bench.LaneCollTable,
		bench.EagerLatencyTable,
		bench.RegCacheTable,
		bench.IntegrityOverheadTable,
		func(bench.FigOpts) (*stats.Table, error) { return bench.NoDegradationTable() },
	}
	// Each generator runs its own simulations against a fresh world, so the
	// set fans out across the harness pool; printing stays in order, so the
	// output is byte-identical to a serial loop.
	tables, err := harness.Map(gens, func(g func(bench.FigOpts) (*stats.Table, error)) (string, error) {
		t, err := g(o)
		if err != nil {
			return "", err
		}
		return t.Format(), nil
	})
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(w, t)
	}
	return nil
}

// run prints the figure fig ("3".."12", "headline" or "all") to w.
func run(w io.Writer, fig string, o bench.FigOpts) error {
	type gen struct {
		name  string
		notes string
		fn    func(bench.FigOpts) (*stats.Table, error)
	}
	gens := map[string]gen{
		"3": {"Figure 3", "paper: the enhanced design adds no overhead for small messages",
			bench.Fig3},
		"4": {"Figure 4", "paper: EPC ≈ even striping lead; ~33-41% improvement over original; binding/round robin flat",
			bench.Fig4},
		"5": {"Figure 5", "paper: multi-QP round robin (EPC) gains past 1KB",
			bench.Fig5},
		"6": {"Figure 6", "paper: peaks 2745 (EPC) vs 1661 MB/s (original); striping dips at medium sizes",
			bench.Fig6},
		"7": {"Figure 7", "paper: peaks 5362 (EPC) vs ~3100 MB/s (original)",
			bench.Fig7},
		"8": {"Figure 8", "paper: EPC best for Alltoall on 2x4, improvement even at medium sizes",
			bench.Fig8},
		"9": {"Figure 9 (NAS IS class A)", "paper: 13% / 8% faster at 2 / 4 procs with EPC",
			func(o bench.FigOpts) (*stats.Table, error) { return bench.NASFig("is", 'A', o) }},
		"10": {"Figure 10 (NAS IS class B)", "paper: 9% / 7% faster at 2 / 4 procs",
			func(o bench.FigOpts) (*stats.Table, error) { return bench.NASFig("is", 'B', o) }},
		"11": {"Figure 11 (NAS FT class A)", "paper: ~5-7% faster",
			func(o bench.FigOpts) (*stats.Table, error) { return bench.NASFig("ft", 'A', o) }},
		"12": {"Figure 12 (NAS FT class B)", "paper: ~5-7% faster",
			func(o bench.FigOpts) (*stats.Table, error) { return bench.NASFig("ft", 'B', o) }},
	}
	order := []string{"3", "4", "5", "6", "7", "8", "9", "10", "11", "12"}

	if fig == "headline" || fig == "all" {
		if err := headline(w, o); err != nil {
			return err
		}
		if fig == "headline" {
			return nil
		}
		fmt.Fprintln(w)
	}
	var selected []string
	for _, k := range order {
		if fig == "all" || fig == k {
			selected = append(selected, k)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown figure %q (want 3..12, headline, all)", fig)
	}
	// Every figure generator builds fresh simulations, so the whole sweep
	// fans out over the harness pool; results print in figure order, making
	// the output byte-identical to the serial loop regardless of worker
	// count.
	tables, err := harness.Map(selected, func(k string) (string, error) {
		t, err := gens[k].fn(o)
		if err != nil {
			return "", err
		}
		return t.Format(), nil
	})
	if err != nil {
		return err
	}
	for i, k := range selected {
		g := gens[k]
		fmt.Fprintf(w, "==== %s ====\n(%s)\n", g.name, g.notes)
		fmt.Fprintln(w, tables[i])
	}
	return nil
}

func headline(w io.Writer, o bench.FigOpts) error {
	h, err := o.Measure()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "==== Headline numbers (paper §1 / §4.3) ====")
	fmt.Fprintf(w, "%-34s %10s %10s\n", "", "paper", "measured")
	fmt.Fprintf(w, "%-34s %10s %9.0f%%\n", "ping-pong latency improvement", "41%", h.LatencyImprovePct)
	fmt.Fprintf(w, "%-34s %10s %10.0f\n", "uni-dir peak, original (MB/s)", "1661", h.UniPeakOrig)
	fmt.Fprintf(w, "%-34s %10s %10.0f\n", "uni-dir peak, EPC (MB/s)", "2745", h.UniPeakEPC)
	fmt.Fprintf(w, "%-34s %10s %9.0f%%\n", "uni-dir improvement", "63-65%", h.UniGainPct)
	fmt.Fprintf(w, "%-34s %10s %10.0f\n", "bi-dir peak, original (MB/s)", "~3100", h.BiPeakOrig)
	fmt.Fprintf(w, "%-34s %10s %10.0f\n", "bi-dir peak, EPC (MB/s)", "5362", h.BiPeakEPC)
	fmt.Fprintf(w, "%-34s %10s %9.0f%%\n", "bi-dir improvement", "63-65%", h.BiGainPct)
	return nil
}

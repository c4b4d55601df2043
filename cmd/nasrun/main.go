// Command nasrun executes one NAS Parallel Benchmark kernel (IS, FT, EP,
// CG, MG or the LU wavefront) on the simulated cluster and reports the timed-region result, or sweeps the
// full kernel x class x layout x policy x eager-protocol matrix.
//
// Examples:
//
//	nasrun -kernel is -class A -nodes 2 -ppn 1 -qps 4 -policy epc
//	nasrun -kernel ft -class S -real          # run the real FFT numerics
//	nasrun -kernel is -class B -ppn 4 -policy original -qps 1
//	nasrun -sweep                             # matrix sweep, resumable cache
//	nasrun -sweep -kernels is,cg -protos rdma -cache /tmp/sweep.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/nas"
)

// policyKinds names the scheduling policies on the command line (shared by
// the single-kernel mode and the sweep).
var policyKinds = map[string]core.Kind{
	"original": core.Original, "binding": core.Binding, "rr": core.RoundRobin,
	"striping": core.EvenStriping, "weighted": core.WeightedStriping,
	"epc": core.EPC, "adaptive": core.Adaptive,
}

func main() {
	kernel := flag.String("kernel", "is", "is | ft | ep | cg | mg | lu")
	class := flag.String("class", "S", "problem class: S W A B C")
	nodes := flag.Int("nodes", 2, "nodes")
	ppn := flag.Int("ppn", 1, "processes per node")
	qps := flag.Int("qps", 4, "QPs per port")
	policy := flag.String("policy", "epc", "original | binding | rr | striping | weighted | epc | adaptive")
	realMode := flag.Bool("real", false, "move real payloads through the simulated transport (IS) / run the real FFT numerics (FT)")
	sweep := flag.Bool("sweep", false, "run the kernel x class x layout x policy x eager-protocol matrix")
	kernels := flag.String("kernels", "is,ft,ep,cg,mg,lu", "sweep: comma-separated kernels")
	classes := flag.String("classes", "S", "sweep: comma-separated problem classes")
	procs := flag.String("procs", "2x1,2x2,4x1", "sweep: comma-separated NODESxPPN layouts")
	policies := flag.String("policies", "binding,rr,striping,epc", "sweep: comma-separated policies")
	protos := flag.String("protos", "sendrecv,rdma", "sweep: comma-separated eager protocols")
	batch := flag.Int("batch", 8, "sweep: cells per batch between cache writes")
	cachePath := flag.String("cache", "nas_sweep.json", "sweep: per-cell result cache (delete to restart)")
	flag.Parse()

	if *sweep {
		if err := runSweep(*kernels, *classes, *procs, *policies, *protos, *qps, *batch, *cachePath); err != nil {
			fatal(err)
		}
		return
	}

	kind, ok := policyKinds[strings.ToLower(*policy)]
	if !ok {
		fmt.Fprintf(os.Stderr, "nasrun: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if len(*class) != 1 {
		fmt.Fprintf(os.Stderr, "nasrun: bad class %q\n", *class)
		os.Exit(2)
	}
	cfg := mpi.Config{Nodes: *nodes, ProcsPerNode: *ppn, QPsPerPort: *qps, Policy: kind}
	np := cfg.Size()

	switch strings.ToLower(*kernel) {
	case "is":
		cl, err := nas.ISClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		board := nas.NewISBoard(np)
		var res nas.ISResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunIS(c, cl, !*realMode, board)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS IS class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		fmt.Printf("  rate     = %.1f Mkeys/s\n", res.MopTotal)
		fmt.Printf("  verified = %v\n", res.Verified)
		if !res.Verified {
			os.Exit(1)
		}
	case "ft":
		cl, err := nas.FTClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		if !cl.ValidFor(np) {
			fatal(fmt.Errorf("class %c grid does not divide over %d ranks", cl.Name, np))
		}
		board := nas.NewFTBoard(np)
		var res nas.FTResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunFT(c, cl, !*realMode, board)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS FT class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		for i, chk := range res.Checksums {
			fmt.Printf("  checksum[%d] = %.10e %+.10ei\n", i+1, real(chk), imag(chk))
		}
		fmt.Printf("  verified = %v\n", res.Verified)
		if !res.Verified {
			os.Exit(1)
		}
	case "ep":
		cl, err := nas.EPClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		var res nas.EPResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunEP(c, cl, !*realMode)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS EP class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		if *realMode {
			fmt.Printf("  sums     = %.10e %.10e\n", res.SumX, res.SumY)
			fmt.Printf("  counts   = %v\n", res.Counts)
		}
		fmt.Printf("  verified = %v\n", res.Verified)
	case "cg":
		cl, err := nas.CGClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		var res nas.CGResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunCG(c, cl)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS CG class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		fmt.Printf("  zeta     = %.10f\n", res.Zeta)
		fmt.Printf("  residual = %.3e\n", res.Residual)
		fmt.Printf("  verified = %v\n", res.Verified)
		if !res.Verified {
			os.Exit(1)
		}
	case "mg":
		cl, err := nas.MGClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		if cl.N%np != 0 {
			fatal(fmt.Errorf("class %c grid does not divide over %d ranks", cl.Name, np))
		}
		var res nas.MGResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunMG(c, cl, !*realMode)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS MG class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		if *realMode {
			fmt.Printf("  residual = %.3e -> %.3e\n", res.Residual0, res.ResidualN)
		}
		fmt.Printf("  verified = %v\n", res.Verified)
		if !res.Verified {
			os.Exit(1)
		}
	case "lu":
		cl, err := nas.LUClassByName((*class)[0])
		if err != nil {
			fatal(err)
		}
		var res nas.LUResult
		_, err = mpi.Run(cfg, func(c *mpi.Comm) {
			r := nas.RunLU(c, cl)
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NAS LU (wavefront) class %c, %d procs (%dx%d), %s %dQP\n", cl.Name, np, *nodes, *ppn, kind, *qps)
		fmt.Printf("  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
		fmt.Printf("  checksum = %.10e\n", res.Checksum)
		fmt.Printf("  verified = %v\n", res.Verified)
		if !res.Verified {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "nasrun: unknown kernel %q\n", *kernel)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nasrun:", err)
	os.Exit(1)
}

// Command nasrun executes one NAS Parallel Benchmark kernel (IS, FT, EP,
// CG, MG or the LU wavefront) on the simulated cluster and reports the timed-region result, or sweeps the
// full kernel x class x layout x policy x eager-protocol matrix.
//
// Examples:
//
//	nasrun -kernel is -class A -nodes 2 -ppn 1 -qps 4 -policy epc
//	nasrun -kernel ft -class S -real          # run the real FFT numerics
//	nasrun -kernel is -class B -ppn 4 -policy original -qps 1
//	nasrun -sweep                             # the whole matrix, synthetic mode
//	nasrun -sweep -kernels is,cg -protos rdma
//
// It exits 1 on any error, and when a kernel or a sweep cell fails its
// verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ib12x/internal/bench"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "nasrun:", err)
		os.Exit(1)
	}
}

// run parses args, runs one kernel or the sweep, and prints the report
// on w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("nasrun", flag.ContinueOnError)
	kernel := fs.String("kernel", "is", "is | ft | ep | cg | mg | lu")
	class := fs.String("class", "S", "problem class: S W A B C")
	nodes := fs.Int("nodes", 2, "nodes")
	ppn := fs.Int("ppn", 1, "processes per node")
	qps := fs.Int("qps", 4, "QPs per port")
	policy := fs.String("policy", "epc", "original | binding | rr | striping | weighted | epc | adaptive")
	realMode := fs.Bool("real", false, "move real payloads through the simulated transport (IS) / run the real numerics (FT, EP, MG)")
	sweep := fs.Bool("sweep", false, "run the kernel x class x layout x policy x eager-protocol matrix")
	kernels := fs.String("kernels", "is,ft,ep,cg,mg,lu", "sweep: comma-separated kernels")
	classes := fs.String("classes", "S", "sweep: comma-separated problem classes")
	procs := fs.String("procs", "2x1,2x2,4x1", "sweep: comma-separated NODESxPPN layouts")
	policies := fs.String("policies", "binding,rr,striping,epc", "sweep: comma-separated policies")
	protos := fs.String("protos", "sendrecv,rdma", "sweep: comma-separated eager protocols")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *sweep {
		return runSweep(w, *kernels, *classes, *procs, *policies, *protos, *qps)
	}
	kind, err := core.ParseKind(*policy)
	if err != nil {
		return err
	}
	if len(*class) != 1 {
		return fmt.Errorf("bad class %q", *class)
	}
	cfg := mpi.Config{Nodes: *nodes, ProcsPerNode: *ppn, QPsPerPort: *qps, Policy: kind}
	res, err := bench.RunNAS(cfg, strings.ToLower(*kernel), (*class)[0], *realMode)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "NAS %s class %s, %d procs (%dx%d), %s %dQP\n", res.Name, *class, cfg.Size(), *nodes, *ppn, kind, *qps)
	fmt.Fprintf(w, "  time     = %.4f s (virtual)\n", res.Elapsed.Seconds())
	for _, line := range res.Lines {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  verified = %v\n", res.Verified)
	if !res.Verified {
		return errors.New("verification failed")
	}
	return nil
}

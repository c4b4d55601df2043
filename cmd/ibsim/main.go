// Command ibsim runs one micro-benchmark on the simulated IBM 12x cluster
// with full control over the configuration — the exploratory counterpart of
// cmd/reproduce.
//
// Examples:
//
//	ibsim -test latency -policy epc -qps 4 -sizes 1024,65536,1048576
//	ibsim -test unibw -policy striping -qps 4
//	ibsim -test alltoall -ppn 4 -policy epc -qps 4 -sizes 16384,262144
//	ibsim -test bibw -policy original -ports 2 -hcas 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ib12x/internal/adi"
	"ib12x/internal/bench"
	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/stats"
	"ib12x/internal/trace"
)

func main() {
	test := flag.String("test", "latency", "latency | unibw | bibw | msgrate | alltoall | bcast | allgather | allreduce")
	policy := flag.String("policy", "epc", "original | binding | rr | striping | weighted | epc | adaptive")
	qps := flag.Int("qps", 4, "QPs per port (rails per port)")
	ports := flag.Int("ports", 1, "ports per HCA (the IBM HCA is dual-port)")
	hcas := flag.Int("hcas", 1, "HCAs per node")
	nodes := flag.Int("nodes", 2, "nodes")
	ppn := flag.Int("ppn", 1, "processes per node")
	perLeaf := flag.Int("leaf", 0, "nodes per leaf switch (0 = single switch)")
	oversub := flag.Float64("oversub", 1, "fat-tree trunk oversubscription factor (with -leaf)")
	sizesArg := flag.String("sizes", "", "comma-separated message sizes (default: a doubling sweep)")
	iters := flag.Int("iters", 0, "measured iterations (defaults per test)")
	warmup := flag.Int("warmup", 0, "warm-up iterations (defaults per test)")
	window := flag.Int("window", 64, "bandwidth window size (paper §4.2: 64)")
	rndv := flag.String("rndv", "put", "rendezvous protocol: put (RPUT, the paper's) | get (RGET)")
	report := flag.Bool("report", false, "print a hardware utilization report for the last size")
	traceN := flag.Int("trace", 0, "print the first N protocol events for the last size")
	flag.Parse()

	kind, err := core.ParseKind(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(2)
	}
	setup := bench.Setup{
		QPs: *qps, Policy: kind,
		Nodes: *nodes, PPN: *ppn, Ports: *ports, HCAs: *hcas,
	}
	if !(*oversub > 0) {
		fmt.Fprintf(os.Stderr, "ibsim: -oversub %g, need > 0\n", *oversub)
		os.Exit(2)
	}
	if *perLeaf > 0 {
		setup.NodesPerSwitch = *perLeaf
		setup.TrunkRate = model.Default().LinkRawRate * float64(*perLeaf) / *oversub
	}
	switch strings.ToLower(*rndv) {
	case "put", "rput", "write":
		setup.Rndv = adi.RndvWrite
	case "get", "rget", "read":
		setup.Rndv = adi.RndvRead
	default:
		fmt.Fprintf(os.Stderr, "ibsim: unknown rendezvous protocol %q\n", *rndv)
		os.Exit(2)
	}

	sizes, err := parseSizes(*sizesArg, *test)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(2)
	}

	vals, unit, err := dispatch(*test, setup, sizes, *window, *iters, *warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(1)
	}
	if *report || *traceN > 0 {
		if err := inspect(*test, setup, sizes[len(sizes)-1], *window, *report, *traceN); err != nil {
			fmt.Fprintln(os.Stderr, "ibsim:", err)
			os.Exit(1)
		}
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%s  [%s, %d node(s) x %d proc(s), %d HCA x %d port x %d QP]", *test, setup.Label(), *nodes, *ppn, *hcas, *ports, *qps),
		XLabel: "Size", Unit: unit,
	}
	for i, n := range sizes {
		t.Add(setup.Label(), n, vals[i])
	}
	fmt.Println(t.Format())
}

// inspect reruns the last size with a recorder attached and prints the
// requested introspection.
func inspect(test string, s bench.Setup, size, window int, report bool, traceN int) error {
	rec := trace.NewRecorder(0)
	cfg := s.Config()
	cfg.Trace = rec
	var end sim.Time
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		switch test {
		case "latency":
			if c.Rank() == 0 {
				c.SendN(1, 0, nil, size)
				c.RecvN(1, 0, nil, size)
			} else if c.Rank() == 1 {
				c.RecvN(0, 0, nil, size)
				c.SendN(0, 0, nil, size)
			}
		case "alltoall":
			c.Alltoall(nil, size, nil)
		default: // bandwidth-style window
			reqs := make([]*mpi.Request, window)
			if c.Rank() == 0 {
				for w := range reqs {
					reqs[w] = c.IsendN(1, 0, nil, size)
				}
				c.Waitall(reqs)
			} else if c.Rank() == 1 {
				for w := range reqs {
					reqs[w] = c.IrecvN(0, 0, nil, size)
				}
				c.Waitall(reqs)
			}
		}
		if c.Rank() == 0 {
			end = c.Time()
		}
	})
	if err != nil {
		return err
	}
	if traceN > 0 {
		fmt.Printf("---- first %d protocol events (one operation at %s) ----\n", traceN, stats.FormatSize(size))
		fmt.Print(rec.Timeline(traceN))
		fmt.Println("---- event summary ----")
		fmt.Print(rec.Summary())
	}
	if report {
		fmt.Println("---- hardware report ----")
		fmt.Print(bench.Report(rep.World, end))
	}
	return nil
}

func dispatch(test string, s bench.Setup, sizes []int, window, iters, warmup int) ([]float64, string, error) {
	def := func(v, d int) int {
		if v > 0 {
			return v
		}
		return d
	}
	switch test {
	case "latency":
		v, err := bench.Latency(s, sizes, def(iters, 200), def(warmup, 20))
		return v, "us", err
	case "unibw":
		v, err := bench.UniBandwidth(s, sizes, window, def(iters, 20), def(warmup, 2))
		return v, "MB/s", err
	case "bibw":
		v, err := bench.BiBandwidth(s, sizes, window, def(iters, 20), def(warmup, 2))
		return v, "MB/s", err
	case "msgrate":
		r, err := bench.MessageRate(s, window, def(iters, 20), def(warmup, 2))
		out := make([]float64, len(sizes))
		for i := range out {
			out[i] = r
		}
		return out, "Mmsg/s", err
	case "alltoall":
		v, err := bench.Alltoall(s, sizes, def(iters, 20), def(warmup, 2))
		return v, "us", err
	case "bcast":
		v, err := bench.Collective(bench.CollBcast, s, sizes, def(iters, 20), def(warmup, 2))
		return v, "us", err
	case "allgather":
		v, err := bench.Collective(bench.CollAllgather, s, sizes, def(iters, 20), def(warmup, 2))
		return v, "us", err
	case "allreduce":
		v, err := bench.Collective(bench.CollAllreduce, s, sizes, def(iters, 20), def(warmup, 2))
		return v, "us", err
	default:
		return nil, "", fmt.Errorf("unknown test %q", test)
	}
}

func parseSizes(arg, test string) ([]int, error) {
	if arg == "" {
		if test == "latency" {
			return bench.Sizes(1, 1<<20), nil
		}
		return bench.Sizes(1024, 1<<20), nil
	}
	var out []int
	for _, f := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

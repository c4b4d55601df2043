// Command benchmark measures the simulator (host time, allocation, memory)
// and the simulated machine (virtual time) on six workloads, end to end and
// layer by layer. See README.md for the metric glossary.
//
//	go run . -seed 1                      every workload, untraced + traced, writes out/result.json
//	go run . -workload p2p_bw -trace 0    one workload's end-to-end metrics (the driver's form)
//	go run . -workload p2p_bw -trace 1    one workload's per-layer metrics, ladder included
//	go run . -selfcheck -seed 1           two sets back to back, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ib12x/benchmark/ladder"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	brk       bool
	selfcheck bool
	out       string

	// Child-process form: one repetition, result as JSON on stdout.
	child     bool
	ladder    bool
	traced    bool
	probes    bool
	shards    int
	traceFile string
}

func parse(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six, untraced then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 15, "host seconds of timed repetitions per workload")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny iteration counts and two repetitions (tests)")
	fs.BoolVar(&o.brk, "break", false, "self-test: corrupt one received payload in the checker; must fail")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets back to back and compare them against the bounds")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace files")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print it as JSON")
	fs.BoolVar(&o.ladder, "ladder", false, "internal: child runs the ladder instead of a workload")
	fs.BoolVar(&o.traced, "traced", false, "internal: child records spans and protocol events")
	fs.BoolVar(&o.probes, "probes", false, "internal: child repeats the world build for setup_s")
	fs.IntVar(&o.shards, "shards", 0, "internal: child runs on the sharded engine")
	fs.StringVar(&o.traceFile, "trace-file", "", "internal: where the traced child writes its spans")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole program; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	o, err := parse(args)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		return 2
	}
	switch {
	case o.child:
		err = runChild(o, stdout)
	case o.selfcheck:
		return selfcheck(o, stdout)
	case o.workload != "":
		return runOne(o, stdout)
	default:
		return runAll(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func runChild(o *options, stdout io.Writer) error {
	if o.ladder {
		runtime.GOMAXPROCS(1)
		minTime := 200 * time.Millisecond
		if o.quick {
			minTime = time.Millisecond
		}
		return json.NewEncoder(stdout).Encode(ladder.Run(minTime))
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("-child needs -workload")
	}
	res, err := runRep(w, newInputs(o.seed, o.quick, o.brk), repOpts{
		traced: o.traced, shards: o.shards, probes: o.probes, traceFile: o.traceFile,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runOne is the driver's form: one workload, end-to-end or per-layer, with
// the result object as the last line of standard output.
func runOne(o *options, stdout io.Writer) int {
	w := findWorkload(o.workload)
	res, err := measure(w, o, o.trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printWorkload(stdout, res)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": res.value(d.Name), "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.OpsFailed == 0, "attempted": res.Ops, "failed": res.OpsFailed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.OpsFailed > 0 {
		return 1
	}
	return 0
}

// runSet measures every workload untraced, and traced too when asked.
func runSet(o *options, stdout io.Writer, traced bool) ([]*wlResult, error) {
	var out []*wlResult
	for i := range workloads {
		res, err := measure(&workloads[i], o, false)
		if err != nil {
			return nil, err
		}
		if traced {
			tr, err := measure(&workloads[i], o, true)
			if err != nil {
				return nil, err
			}
			res.merge(tr)
		}
		printWorkload(stdout, res)
		out = append(out, res)
	}
	return out, nil
}

// runAll is the full benchmark: every workload's end-to-end and per-layer
// metrics, printed and written to out/result.json.
func runAll(o *options, stdout io.Writer) int {
	host := hostInfo()
	fmt.Fprintf(stdout, "host: %s, %d CPUs, %s; repetitions at GOMAXPROCS 1 pinned to one CPU; seed %d\n\n",
		host["cpu"], runtime.NumCPU(), runtime.Version(), o.seed)
	set, err := runSet(o, stdout, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.MarshalIndent(map[string]any{"host": host, "seed": o.seed, "workloads": set}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return failures(set, stdout)
}

// failures reports every workload with failed ops and returns the exit code.
func failures(set []*wlResult, stdout io.Writer) int {
	code := 0
	for _, r := range set {
		if r.OpsFailed > 0 {
			fmt.Fprintf(stdout, "FAIL %s: %d of %d ops failed: %s\n", r.Name, r.OpsFailed, r.Ops, r.Failure)
			code = 1
		}
	}
	return code
}

// selfcheck runs two full untraced sets back to back and compares every
// end-to-end metric: timings must agree within the metric's bound, exact
// metrics (bound 0 here: virt_us) must not differ at all.
func selfcheck(o *options, stdout io.Writer) int {
	var sets [2][]*wlResult
	for i := range sets {
		fmt.Fprintf(stdout, "== set %d ==\n", i+1)
		set, err := runSet(o, stdout, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sets[i] = set
	}
	code := failures(append(sets[0], sets[1]...), stdout)
	fmt.Fprintf(stdout, "\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			va, vb := a.value(d.Name), b.value(d.Name)
			diff := ratio(vb-va, va)
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			verdict := ""
			switch {
			case d.Exact && va != vb:
				verdict, code = "DIFFERS (must be exact)", 1
			case worse > d.Bound:
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
				a.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if !maps.Equal(a.Counters, b.Counters) {
			fmt.Fprintf(stdout, "%-14s counters differ between the sets\n", a.Name)
			code = 1
		}
	}
	return code
}

// hostInfo records what the timings were taken on.
func hostInfo() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": 1,
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

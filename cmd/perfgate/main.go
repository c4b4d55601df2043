// Command perfgate runs the hot-path wall-clock benchmarks
// (BenchmarkFig04/06/07/08 with -benchmem), records the results in
// BENCH_hotpath.json next to the seed baseline, and — in gate mode —
// fails if any gated figure regresses past its budget, leaving the
// recorded file as it was.
//
// Usage:
//
//	perfgate                 # run, print, write BENCH_hotpath.json
//	perfgate -gate           # enforce the per-figure floors first; write only if they hold
//	perfgate -benchtime 5x   # more iterations (steadier numbers)
//	perfgate -samples 5      # repeat each benchmark, report mean ± stddev
//	perfgate -o path.json    # alternate output file
//
// The test binary is compiled once; each (benchmark, sample) cell then
// runs as its own child process, fanned out over the harness pool. The
// virtual-time results inside every simulation are deterministic, so
// parallel cells only affect wall-clock noise: allocs/op is exact
// regardless of concurrency, and ns/op on a loaded multicore machine is
// read as "loaded machine" — force IB12X_WORKERS=1 for quiet timings.
//
// Gates: BenchmarkFig06UniBW (the window-64 bandwidth sweep, the
// allocation-heaviest figure) must hold ns/op at least 25% below the
// seed and allocs/op at least 50% below it (with -samples > 1 the ns
// gate judges the fastest sample — background load only ever inflates
// wall clock). The zero-copy payload path
// cut the other figures' allocations by >90% as well, so Fig04/Fig07/
// Fig08 gate allocs/op too (allocation counts are exact, so the floors
// are tight); their ns/op is recorded but not gated — those runs are
// shorter and noisier on shared machines.
//
// The lane-collective rows (BenchmarkLaneAllgather and its striped
// shadow) are recorded without a gate: they expose the host-side cost of
// the lane-decomposed collective machinery next to the reference row.
//
// The eager-channel rows (BenchmarkSmallMsgLatency and its RDMA-write
// shadow) gate against each other: the ring row's allocs/op must stay
// within a small slack of the send/recv row's, so per-message garbage on
// the ring fast path fails the gate even though the pair has no seed
// baseline.
//
// The integrity row (BenchmarkFig06Integrity, the Fig06 sweep with
// end-to-end verification armed) gates the same way against the
// unprotected Fig06 run: checksum capture and verification must stay
// allocation-free per payload.
//
// The routing row (BenchmarkFig06ThreeTier, the Fig06 sweep over a routed
// 1:1 three-tier tree with adaptive selection) gates the same way against
// the flat Fig06 run: the per-chunk route walk and its lane bookings must
// stay allocation-free.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ib12x/internal/harness"
)

// seedBaseline holds the pre-overhaul numbers, measured on the growth
// seed with `go test -bench ... -benchmem -benchtime 3x` (single run;
// ns/op is machine-dependent, allocs/op is exact).
var seedBaseline = map[string]Result{
	"BenchmarkFig04LargeLatency": {NsPerOp: 30487433, AllocsPerOp: 119238},
	"BenchmarkFig06UniBW":        {NsPerOp: 182581294, AllocsPerOp: 1140271},
	"BenchmarkFig07BiBW":         {NsPerOp: 164104600, AllocsPerOp: 1137865},
	"BenchmarkFig08Alltoall":     {NsPerOp: 17535687, AllocsPerOp: 110807},
}

// gate is one benchmark's budget, expressed as the fraction of the seed
// value that must be shaved. nsFloor 0 means ns/op is not gated.
type gateSpec struct {
	nsFloor    float64
	allocFloor float64
}

// gates: Fig06 carries the headline ns+alloc floor; the other figures
// gate allocations only. The alloc floors sit far above the measured
// post-overhaul counts (98%+ cuts) but far below the seed, so they trip
// on any real leak of per-chunk or per-WR garbage without flaking.
var gates = map[string]gateSpec{
	"BenchmarkFig06UniBW":        {nsFloor: 0.25, allocFloor: 0.50},
	"BenchmarkFig04LargeLatency": {allocFloor: 0.80},
	"BenchmarkFig07BiBW":         {allocFloor: 0.80},
	"BenchmarkFig08Alltoall":     {allocFloor: 0.80},
}

// Lane-collective rows: the 256KB Allgather under the lane-decomposed and
// the striped reference algorithm. No seed baseline (the seed had no lane
// collectives) and no gate; the pair is recorded so the host-side cost of
// the lane machinery is visible next to the reference row it shadows.
var laneBenches = []string{"BenchmarkLaneAllgather", "BenchmarkLaneAllgatherStriped"}

// Eager-channel rows: the 1B/1KB EPC ping-pong under the send/recv
// channel and the RDMA-write ring. No seed baseline (the seed had one
// eager channel); instead the pair gates against itself — the ring's slab
// and header cache are per-connection state allocated at world build, so
// the RDMA row's allocs/op must stay within eagerAllocSlackPct (plus a
// small absolute headroom for those per-world allocations) of the
// send/recv row. Any per-message garbage on the ring fast path trips it.
var eagerBenches = []string{"BenchmarkSmallMsgLatency", "BenchmarkSmallMsgLatencyRDMA"}

const (
	eagerAllocSlackPct  = 10
	eagerAllocHeadroom  = 256
	eagerSendRecvBench  = "BenchmarkSmallMsgLatency"
	eagerRDMAWriteBench = "BenchmarkSmallMsgLatencyRDMA"
)

// Integrity row: the Figure 6 sweep with end-to-end payload verification
// armed. No seed baseline (the seed had no integrity model); the row gates
// against the unprotected Fig06 run instead — its allocs/op must stay
// within a small slack (plus absolute headroom for the per-world checksum
// state) of BenchmarkFig06UniBW's, so checksum capture and verification
// stay allocation-free per payload.
var integrityBenches = []string{"BenchmarkFig06Integrity"}

const (
	integrityAllocSlackPct = 10
	integrityAllocHeadroom = 512
	integrityBench         = "BenchmarkFig06Integrity"
	integrityBaseBench     = "BenchmarkFig06UniBW"
)

// Routing row: the Figure 6 sweep over a routed 1:1 three-tier tree with
// adaptive path selection. No seed baseline (the seed had a flat switch);
// the row gates against the flat Fig06 run — its allocs/op must stay
// within a small slack (plus absolute headroom for the per-world switch
// graph) of BenchmarkFig06UniBW's, so the per-chunk route walk and lane
// bookings stay allocation-free.
var routingBenches = []string{"BenchmarkFig06ThreeTier"}

const (
	routingAllocSlackPct = 10
	routingAllocHeadroom = 512
	routingBench         = "BenchmarkFig06ThreeTier"
	routingBaseBench     = "BenchmarkFig06UniBW"
)

// Result is one benchmark measurement. With -samples > 1 the fields are
// means across samples, NsStddev carries the ns/op spread, and NsMin the
// fastest sample — the least noise-inflated wall-clock estimate, which
// is what the ns gate judges.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsStddev    float64 `json:"ns_stddev,omitempty"`
	NsMin       float64 `json:"ns_min,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// gateNs is the ns/op value a gate judges: the fastest sample when
// several were taken (background load only ever inflates wall clock),
// else the single measurement.
func (r Result) gateNs() float64 {
	if r.NsMin > 0 {
		return r.NsMin
	}
	return r.NsPerOp
}

// Report is the BENCH_hotpath.json document.
type Report struct {
	Date      string            `json:"date"`
	Benchtime string            `json:"benchtime"`
	Samples   int               `json:"samples,omitempty"`
	Host      string            `json:"host"`
	CPUs      int               `json:"cpus"`
	Seed      map[string]Result `json:"seed"`
	Current   map[string]Result `json:"current"`
}

// hostID names the machine class the numbers came from — CPU model where
// /proc/cpuinfo gives one, then platform and toolchain: a recorded ns/op
// cannot be compared with anything without it.
func hostID() string {
	id := runtime.GOOS + "/" + runtime.GOARCH + " " + runtime.Version()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if _, rest, ok := strings.Cut(string(b), "model name\t: "); ok {
			model, _, _ := strings.Cut(rest, "\n")
			id = model + ", " + id
		}
	}
	return id
}

func main() {
	gate := flag.Bool("gate", false, "fail unless every per-figure floor holds")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	samples := flag.Int("samples", 1, "runs per benchmark; >1 reports mean ± stddev")
	out := flag.String("o", "BENCH_hotpath.json", "output file")
	flag.Parse()

	if *samples < 1 {
		*samples = 1
	}
	current, err := runBenchmarks(*benchtime, *samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}

	rep := Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Benchtime: *benchtime,
		Host:      hostID(),
		CPUs:      runtime.NumCPU(),
		Seed:      seedBaseline,
		Current:   current,
	}
	if *samples > 1 {
		rep.Samples = *samples
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')

	for _, name := range benchNames() {
		seed := seedBaseline[name]
		cur, ok := current[name]
		if !ok {
			fmt.Printf("%-28s (missing)\n", name)
			continue
		}
		spread := ""
		if cur.NsStddev > 0 {
			spread = fmt.Sprintf(" ±%.0f", cur.NsStddev)
		}
		fmt.Printf("%-28s ns/op %12.0f%s (seed %12.0f, %+6.1f%%)  allocs/op %9d (seed %9d, %+6.1f%%)\n",
			name, cur.NsPerOp, spread, seed.NsPerOp, pct(cur.NsPerOp, seed.NsPerOp),
			cur.AllocsPerOp, seed.AllocsPerOp, pct(float64(cur.AllocsPerOp), float64(seed.AllocsPerOp)))
	}
	for _, name := range noSeedNames() {
		cur, ok := current[name]
		if !ok {
			fmt.Printf("%-30s (missing)\n", name)
			continue
		}
		spread := ""
		if cur.NsStddev > 0 {
			spread = fmt.Sprintf(" ±%.0f", cur.NsStddev)
		}
		fmt.Printf("%-30s ns/op %12.0f%s  allocs/op %9d\n",
			name, cur.NsPerOp, spread, cur.AllocsPerOp)
	}
	if *gate {
		failed := false
		for _, name := range benchNames() {
			g, gated := gates[name]
			if !gated {
				continue
			}
			cur, ok := current[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfgate: gated benchmark %s missing from output\n", name)
				failed = true
				continue
			}
			seed := seedBaseline[name]
			if g.nsFloor > 0 && cur.gateNs() > seed.NsPerOp*(1-g.nsFloor) {
				fmt.Fprintf(os.Stderr, "perfgate: %s ns/op %.0f exceeds the budget %.0f (seed %.0f - %.0f%%); rerun with -samples 3 on a noisy machine\n",
					name, cur.gateNs(), seed.NsPerOp*(1-g.nsFloor), seed.NsPerOp, g.nsFloor*100)
				failed = true
			}
			if float64(cur.AllocsPerOp) > float64(seed.AllocsPerOp)*(1-g.allocFloor) {
				fmt.Fprintf(os.Stderr, "perfgate: %s allocs/op %d exceeds the budget %.0f (seed %d - %.0f%%)\n",
					name, cur.AllocsPerOp, float64(seed.AllocsPerOp)*(1-g.allocFloor), seed.AllocsPerOp, g.allocFloor*100)
				failed = true
			}
		}
		eagerNote := ""
		sr, okS := current[eagerSendRecvBench]
		rd, okR := current[eagerRDMAWriteBench]
		switch budget := sr.AllocsPerOp + sr.AllocsPerOp*eagerAllocSlackPct/100 + eagerAllocHeadroom; {
		case !okS || !okR:
			fmt.Fprintln(os.Stderr, "perfgate: eager-channel rows missing from output")
			failed = true
		case rd.AllocsPerOp > budget:
			fmt.Fprintf(os.Stderr, "perfgate: %s allocs/op %d exceeds the budget %d (%s %d + %d%% + %d): the ring fast path is allocating per message\n",
				eagerRDMAWriteBench, rd.AllocsPerOp, budget, eagerSendRecvBench, sr.AllocsPerOp, eagerAllocSlackPct, eagerAllocHeadroom)
			failed = true
		default:
			eagerNote = fmt.Sprintf("; RDMA eager allocs/op %d within %d%%+%d of send/recv %d",
				rd.AllocsPerOp, eagerAllocSlackPct, eagerAllocHeadroom, sr.AllocsPerOp)
		}
		integrityNote := ""
		ig, okI := current[integrityBench]
		fb, okF := current[integrityBaseBench]
		switch budget := fb.AllocsPerOp + fb.AllocsPerOp*integrityAllocSlackPct/100 + integrityAllocHeadroom; {
		case !okI || !okF:
			fmt.Fprintln(os.Stderr, "perfgate: integrity row missing from output")
			failed = true
		case ig.AllocsPerOp > budget:
			fmt.Fprintf(os.Stderr, "perfgate: %s allocs/op %d exceeds the budget %d (%s %d + %d%% + %d): checksum capture/verify is allocating per payload\n",
				integrityBench, ig.AllocsPerOp, budget, integrityBaseBench, fb.AllocsPerOp, integrityAllocSlackPct, integrityAllocHeadroom)
			failed = true
		default:
			integrityNote = fmt.Sprintf("; integrity allocs/op %d within %d%%+%d of Fig06 %d",
				ig.AllocsPerOp, integrityAllocSlackPct, integrityAllocHeadroom, fb.AllocsPerOp)
		}
		routingNote := ""
		rt, okT := current[routingBench]
		rb, okB := current[routingBaseBench]
		switch budget := rb.AllocsPerOp + rb.AllocsPerOp*routingAllocSlackPct/100 + routingAllocHeadroom; {
		case !okT || !okB:
			fmt.Fprintln(os.Stderr, "perfgate: routing row missing from output")
			failed = true
		case rt.AllocsPerOp > budget:
			fmt.Fprintf(os.Stderr, "perfgate: %s allocs/op %d exceeds the budget %d (%s %d + %d%% + %d): the route walk is allocating per chunk\n",
				routingBench, rt.AllocsPerOp, budget, routingBaseBench, rb.AllocsPerOp, routingAllocSlackPct, routingAllocHeadroom)
			failed = true
		default:
			routingNote = fmt.Sprintf("; three-tier allocs/op %d within %d%%+%d of Fig06 %d",
				rt.AllocsPerOp, routingAllocSlackPct, routingAllocHeadroom, rb.AllocsPerOp)
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("gate OK: Fig06 holds ns/op -%.0f%% and allocs/op -%.0f%%; Fig04/07/08 hold allocs/op -%.0f%% vs seed%s%s%s\n",
			gates["BenchmarkFig06UniBW"].nsFloor*100, gates["BenchmarkFig06UniBW"].allocFloor*100,
			gates["BenchmarkFig04LargeLatency"].allocFloor*100, eagerNote, integrityNote, routingNote)
	}

	// The record is written last: a failed gate leaves the tracked file
	// as it was.
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

func pct(cur, seed float64) float64 {
	if seed == 0 {
		return 0
	}
	return (cur - seed) / seed * 100
}

// noSeedNames returns the rows that have no seed baseline.
func noSeedNames() []string {
	return slices.Concat(laneBenches, eagerBenches, integrityBenches, routingBenches)
}

// benchNames returns the benchmark set in stable order.
func benchNames() []string {
	ks := make([]string, 0, len(seedBaseline))
	for k := range seedBaseline {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// benchLine matches `go test -bench -benchmem` output, e.g.
// BenchmarkFig06UniBW  3  182581294 ns/op ... 58294416 B/op  1140271 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// runBenchmarks compiles the test binary once, then runs every
// (benchmark, sample) cell as its own child process through the harness
// pool, and folds the samples into per-benchmark means.
func runBenchmarks(benchtime string, samples int) (map[string]Result, error) {
	dir, err := os.MkdirTemp("", "perfgate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "ib12x.test")
	if out, err := exec.Command("go", "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go test -c: %v\n%s", err, out)
	}

	type cell struct {
		bench  string
		sample int
	}
	names := append(benchNames(), noSeedNames()...)
	var cells []cell
	for _, name := range names {
		for s := 0; s < samples; s++ {
			cells = append(cells, cell{name, s})
		}
	}
	raw, err := harness.Map(cells, func(c cell) (Result, error) {
		return runOne(bin, c.bench, benchtime)
	})
	if err != nil {
		return nil, err
	}

	results := map[string]Result{}
	fold := func(name string, rs []Result) {
		var ns []float64
		var agg Result
		for _, r := range rs {
			ns = append(ns, r.NsPerOp)
			agg.BytesPerOp += r.BytesPerOp
			agg.AllocsPerOp += r.AllocsPerOp
		}
		n := int64(len(ns))
		agg.BytesPerOp /= n
		agg.AllocsPerOp /= n
		agg.NsPerOp, agg.NsStddev = meanStddev(ns)
		if len(ns) > 1 {
			agg.NsMin = ns[0]
			for _, x := range ns[1:] {
				agg.NsMin = math.Min(agg.NsMin, x)
			}
		}
		results[name] = agg
	}
	for _, name := range names {
		var rs []Result
		for i, c := range cells {
			if c.bench == name {
				rs = append(rs, raw[i])
			}
		}
		fold(name, rs)
	}
	return results, nil
}

// runOne executes a single benchmark in a child process and parses its
// one result line.
func runOne(bin, bench, benchtime string) (Result, error) {
	cmd := exec.Command(bin, "-test.run", "^$",
		"-test.bench", "^"+bench+"$", "-test.benchmem", "-test.benchtime", benchtime)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return Result{}, fmt.Errorf("%s: %v\n%s", bench, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || m[1] != bench {
			continue
		}
		r := Result{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		// Trailing metrics come as "<value> <unit>" pairs.
		rest := strings.Fields(m[3])
		for i := 1; i < len(rest); i++ {
			switch rest[i] {
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(rest[i-1], 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(rest[i-1], 10, 64)
			}
		}
		return r, nil
	}
	return Result{}, fmt.Errorf("%s: no benchmark line in output:\n%s", bench, out)
}

// meanStddev returns the mean and (for n > 1) the sample standard
// deviation of xs.
func meanStddev(xs []float64) (mean, stddev float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

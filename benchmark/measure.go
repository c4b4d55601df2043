package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ib12x/benchmark/ladder"
	"ib12x/internal/bench"
	"ib12x/internal/core"
)

// metricDef names one metric as BENCHMARK.json does. Exact marks an
// end-to-end metric that is a pure function of the seed.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Exact              bool
}

// endToEnd is what a user of the simulator sees, the same seven on every
// workload; bounds are how far each may worsen before it is a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "virt_us", Unit: "us", Better: "lower", Bound: 0.03, Exact: true},
}

// stat summarises the repetitions of one timed metric.
type stat struct {
	Median, Q1, Q3 float64
	N              int
}

func statOf(v []float64) stat {
	q1, q3 := quartiles(v)
	return stat{median(v), q1, q3, len(v)}
}

// wlResult is one workload's measured result.
type wlResult struct {
	Name           string
	Why            string
	Seed           int64
	Ops, OpsFailed int64
	Failure        string `json:",omitempty"`

	EndToEnd map[string]stat    // untraced repetitions only
	Counters map[string]float64 // exact per seed, asserted equal across repetitions
	PerLayer map[string]float64 `json:",omitempty"` // filled by a traced measurement
	Samples  map[string]float64 `json:",omitempty"` // MPI-call sample counts behind the percentiles
	Ladder   []ladder.Row       `json:",omitempty"`
	// Model lists what model.paper_err_pct compared: measured value, then
	// the paper's. Empty on workloads with no paper reference.
	Model map[string][2]float64 `json:",omitempty"`
}

// value looks a metric up by name, end-to-end first.
func (r *wlResult) value(name string) float64 {
	if s, ok := r.EndToEnd[name]; ok {
		return s.Median
	}
	return r.PerLayer[name]
}

// add accumulates one leg's verification units; the first failure message
// seen is the one reported.
func (r *wlResult) add(ops, failed int64, failure string) {
	r.Ops += ops
	r.OpsFailed += failed
	if r.Failure == "" {
		r.Failure = failure
	}
}

// fail records one failed verification unit of the benchmark's own.
func (r *wlResult) fail(format string, args ...any) {
	r.add(1, 1, fmt.Sprintf(format, args...))
}

// merge folds a traced measurement of the same workload into r.
func (r *wlResult) merge(tr *wlResult) {
	r.PerLayer, r.Samples, r.Ladder, r.Model = tr.PerLayer, tr.Samples, tr.Ladder, tr.Model
	r.add(tr.Ops, tr.OpsFailed, tr.Failure)
}

// spawn runs this binary again as a child process with the thread's
// children pinned to one CPU (unless sharded, which needs two), and decodes
// the JSON the child prints into out. One repetition per process keeps GC
// state and the RSS high-water mark per repetition.
func spawn(out any, sharded bool, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pinChildren(!sharded)
	defer pinChildren(false)
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

// spawnRep runs one repetition of w in a fresh child process.
func spawnRep(w *workload, o *options, extra ...string) (*repResult, error) {
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.brk {
		args = append(args, "-break")
	}
	res := &repResult{}
	if err := spawn(res, slices.Contains(extra, "-shards"), append(args, extra...)...); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	return res, nil
}

// measure runs w's repetitions and summarises them. Untraced: timed
// repetitions for o.seconds (at least 5). Traced: three untraced
// repetitions for the counters and the overhead baseline, one traced
// repetition, the ladder, and the workload's own reference legs.
func measure(w *workload, o *options, traced bool) (*wlResult, error) {
	res := &wlResult{Name: w.name, Why: w.why, Seed: o.seed, EndToEnd: map[string]stat{}}
	minReps, budget := 5, time.Duration(o.seconds*float64(time.Second))
	if traced {
		minReps, budget = 3, 0
	}
	if o.quick {
		minReps, budget = 2, 0
	}

	var reps []*repResult
	var longest time.Duration
	for start := time.Now(); len(reps) < minReps || time.Since(start)+longest <= budget; {
		t0 := time.Now()
		rep, err := spawnRep(w, o, "-probes")
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t0))
		reps = append(reps, rep)
	}

	first := reps[0]
	res.Counters = first.Counters
	cols := map[string][]float64{}
	for i, rep := range reps {
		res.add(rep.Ops, rep.OpsFailed, rep.Failure)
		if rep.OpsFailed > 0 {
			continue // a failed run's timings describe nothing
		}
		if why := differs(first, rep); why != "" {
			res.fail("repetition %d is not deterministic: %s", i, why)
		}
		run := rep.WallS - rep.SetupS
		cols["setup_s"] = append(cols["setup_s"], median(rep.SetupProbes))
		cols["wall_s"] = append(cols["wall_s"], rep.WallS)
		cols["msgs_per_s"] = append(cols["msgs_per_s"], float64(rep.Msgs)/run)
		cols["allocs_per_msg"] = append(cols["allocs_per_msg"], float64(rep.Mallocs)/float64(rep.Msgs))
		cols["alloc_mb"] = append(cols["alloc_mb"], float64(rep.AllocBytes)/(1<<20))
		cols["peak_rss_mb"] = append(cols["peak_rss_mb"], float64(rep.PeakRSSKB)/1024)
		cols["virt_us"] = append(cols["virt_us"], virtUs(rep.VirtPs))
		cols["run_s"] = append(cols["run_s"], run)
	}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = statOf(cols[d.Name])
	}
	if w.name == "chaos_routed" {
		if fails := chaosConformance(o.seed); len(fails) > 0 {
			res.fail("conformance leg: %s", fails[0])
		} else {
			res.add(1, 0, "")
		}
	}
	if !traced || res.OpsFailed > 0 {
		return res, nil
	}

	// The traced repetition: spans, recorder events, and its own wall time
	// against the untraced median for the overhead.
	traceFile := filepath.Join(o.out, "trace-"+w.name+".json")
	tr, err := spawnRep(w, o, "-traced", "-trace-file", traceFile)
	if err != nil {
		return nil, err
	}
	res.add(tr.Ops, tr.OpsFailed, tr.Failure)
	if tr.OpsFailed > 0 {
		return res, nil
	}
	if tr.VirtPs != first.VirtPs {
		res.fail("tracing moved the virtual clock: %d ps traced, %d ps untraced", tr.VirtPs, first.VirtPs)
	}

	pl := map[string]float64{}
	for k, v := range first.Counters {
		pl[k] = v
	}
	res.Samples = map[string]float64{}
	for k, v := range tr.Trace {
		if op, ok := strings.CutPrefix(k, "mpi.op_samples."); ok {
			res.Samples[op] = v
		} else {
			pl[k] = v
		}
	}
	run := median(cols["run_s"])
	pl["sim.ns_per_event"] = ratio(run*1e9, pl["sim.events"])
	pl["sim.virt_per_wall"] = ratio(virtUs(first.VirtPs)/1e6, run)
	pl["trace.overhead_pct"] = 100 * ratio(tr.WallS-median(cols["wall_s"]), median(cols["wall_s"]))

	ladderArgs := []string{"-ladder"}
	if o.quick {
		ladderArgs = append(ladderArgs, "-quick")
	}
	if err := spawn(&res.Ladder, false, ladderArgs...); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for _, row := range res.Ladder {
		pl[row.Name] = row.Value
	}

	switch w.name {
	case "p2p_bw":
		res.Model, err = paperBandwidths(first.Counters)
	case "p2p_lat":
		res.Model, err = paperLatencyGain(o.quick)
	case "scale_ring":
		pl["sim.shard2_speedup"], err = shardSpeedup(w, o, median(cols["wall_s"]))
	}
	if err != nil {
		return nil, err
	}
	for _, ref := range res.Model {
		pl["model.paper_err_pct"] += 100 * math.Abs(ref[0]-ref[1]) / ref[1] / float64(len(res.Model))
	}
	res.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = pl[d.Name] // 0 where the metric does not apply
	}
	return res, nil
}

// differs names the first count or virtual-time number on which two
// repetitions of one seed disagree ("" when they agree).
func differs(a, b *repResult) string {
	switch {
	case a.VirtPs != b.VirtPs:
		return fmt.Sprintf("virtual time %d vs %d ps", a.VirtPs, b.VirtPs)
	case a.Msgs != b.Msgs:
		return fmt.Sprintf("messages %d vs %d", a.Msgs, b.Msgs)
	case a.Ops != b.Ops:
		return fmt.Sprintf("ops %d vs %d", a.Ops, b.Ops)
	case maps.Equal(a.Counters, b.Counters):
		return ""
	}
	for k, v := range a.Counters {
		if w, ok := b.Counters[k]; !ok || w != v {
			return fmt.Sprintf("%s %v vs %v", k, v, w)
		}
	}
	return "counter sets differ"
}

// paperBandwidths pairs the three 1 MB bandwidth peaks with the paper's
// (EXPERIMENTS.md): the original single-rail design, measured by a reference
// run here, and EPC's uni- and bi-directional peaks as the workload itself
// measured them. model.paper_err_pct is their mean relative error.
func paperBandwidths(extra map[string]float64) (map[string][2]float64, error) {
	orig, err := bench.UniBandwidth(bench.Setup{QPs: 1, Policy: core.Original}, []int{1 << 20}, bwWindow, bwIters[1<<20], bwWarmup)
	if err != nil {
		return nil, err
	}
	return map[string][2]float64{
		"uni_mbps.original": {orig[0], 1661},
		"uni_mbps.epc":      {extra["uni_mbps.1048576"], 2745},
		"bi_mbps.epc":       {extra["bi_mbps.1048576"], 5362},
	}, nil
}

// paperLatencyGain pairs EPC's mean large-message latency gain over the
// original design (the Figure 4 sizes, in percent) with the paper's 33 %.
func paperLatencyGain(quick bool) (map[string][2]float64, error) {
	sizes, iters := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}, 20
	if quick {
		sizes, iters = sizes[:1], 2
	}
	orig, err := bench.Latency(bench.Setup{QPs: 1, Policy: core.Original}, sizes, iters, 2)
	if err != nil {
		return nil, err
	}
	epc, err := bench.Latency(bench.Setup{QPs: 4, Policy: core.EPC}, sizes, iters, 2)
	if err != nil {
		return nil, err
	}
	var gain float64
	for i := range sizes {
		gain += 100 * (orig[i] - epc[i]) / orig[i] / float64(len(sizes))
	}
	return map[string][2]float64{"large_msg_latency_gain_pct": {gain, 33}}, nil
}

// shardSpeedup is serial wall time over the wall time of the same workload
// on two shards (median of 3), the number ROADMAP's sharding verdict needs.
func shardSpeedup(w *workload, o *options, serialWall float64) (float64, error) {
	var walls []float64
	for i := 0; i < 3 && (i == 0 || !o.quick); i++ {
		rep, err := spawnRep(w, o, "-shards", "2")
		if err != nil {
			return 0, err
		}
		if rep.OpsFailed > 0 {
			return 0, fmt.Errorf("sharded %s failed: %s", w.name, rep.Failure)
		}
		walls = append(walls, rep.WallS)
	}
	return serialWall / median(walls), nil
}

// printWorkload prints one workload's metrics by name and unit.
func printWorkload(out io.Writer, r *wlResult) {
	fmt.Fprintf(out, "%s (seed %d): ops %d, ops_failed %d\n", r.Name, r.Seed, r.Ops, r.OpsFailed)
	for _, d := range endToEnd {
		s := r.EndToEnd[d.Name]
		fmt.Fprintf(out, "  %-34s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
	}
	if r.PerLayer == nil {
		fmt.Fprintln(out)
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s", d.Name, r.PerLayer[d.Name], d.Unit)
		if op, ok := strings.CutPrefix(d.Name, "mpi.op_virt_tail_us."); ok {
			n := int(r.Samples[op])
			if i, ok := tailIndex(n); ok {
				fmt.Fprintf(out, " p%.1f of %d samples", 100*float64(i)/float64(n), n)
			} else {
				fmt.Fprintf(out, " %d samples: too few for a tail", n)
			}
		}
		fmt.Fprintln(out)
	}
	if len(r.Model) == 0 {
		fmt.Fprintln(out, "  model.paper_err_pct: no paper reference for this workload")
	}
	for _, k := range sortedKeys(r.Model) {
		fmt.Fprintf(out, "  (model reference) %-28s %10.6g measured, %g in the paper\n", k, r.Model[k][0], r.Model[k][1])
	}
	for _, k := range sortedKeys(r.Counters) {
		if _, isMetric := r.PerLayer[k]; !isMetric {
			fmt.Fprintf(out, "  (virtual result) %-29s %10.6g\n", k, r.Counters[k])
		}
	}
	fmt.Fprintln(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

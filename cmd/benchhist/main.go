// Command benchhist appends the run that `bash benchmark/run.sh` left in
// benchmark/out/result.json to the tracked BENCH_history.json and prints its
// delta against the latest record with the same CPU count, Go version and
// seed. The CPU model string is printed for both, not matched: one host
// reports it differently from one session to the next. No arguments; run
// from the repository root (`make perf`). The record is always appended.
// Exit 1 only on what repeats from run to run: failed ops, a metric in
// repeats worse than its BENCHMARK.json bound, or an exact per-layer counter
// that moved while its workload's virt_us did not (the signature of an
// unintended behaviour change). Every counter that moved is printed; one that
// moved with virt_us is reported, not failed. Host-time metrics are flagged
// but never fail: days apart on a shared host they differ by more. Against a
// record with another CPU string they are labelled "other session".
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

var repeats = map[string]bool{"virt_us": true, "allocs_per_msg": true, "alloc_mb": true}
var sign = map[string]float64{"lower": 1, "higher": -1} // BENCHMARK.json's "better", as the sign of a worsening delta

// record is one run: per workload, each end-to-end median plus ops_failed,
// and the exact per-layer counters (absent from records made before they
// were kept).
type record struct {
	Date      string                        `json:"date"`
	Commit    string                        `json:"commit"`
	CPU       string                        `json:"cpu"`
	NProc     int                           `json:"nproc"`
	Go        string                        `json:"go"`
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
	Counters  map[string]map[string]float64 `json:"counters,omitempty"`
}

func main() {
	out, _ := exec.Command("git", "describe", "--always", "--dirty").Output() // empty outside a checkout
	if err := run(".", time.Now().UTC().Format("2006-01-02"), strings.TrimSpace(string(out)), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchhist:", err)
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	return err
}

// run works on the files under dir; what fails the gate comes back as the error.
func run(dir, date, commit string, w io.Writer) error {
	var decl struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	var res struct {
		Host      record // result.json's host object carries cpu, nproc and go
		Seed      int64
		Workloads []struct {
			Name      string
			OpsFailed int64
			EndToEnd  map[string]struct{ Median float64 }
			Counters  map[string]float64
		}
	}
	var hist []record
	histPath := filepath.Join(dir, "BENCH_history.json")
	if err := readJSON(filepath.Join(dir, "BENCHMARK.json"), &decl); err != nil {
		return err
	}
	if err := readJSON(filepath.Join(dir, "benchmark", "out", "result.json"), &res); err != nil {
		return err
	}
	if err := readJSON(histPath, &hist); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s: %w", histPath, err)
	}
	cur, prev := res.Host, record{Commit: "no comparable record"}
	cur.Date, cur.Commit, cur.Seed = date, commit, res.Seed
	cur.Workloads, cur.Counters = map[string]map[string]float64{}, map[string]map[string]float64{}
	for _, h := range hist {
		if h.NProc == cur.NProc && h.Go == cur.Go && h.Seed == cur.Seed {
			prev = h
		}
	}
	fmt.Fprintf(w, "%s on %q, %d CPUs, %s, seed %d, against: %s %s on %q\n",
		commit, cur.CPU, cur.NProc, cur.Go, cur.Seed, prev.Commit, prev.Date, prev.CPU)
	var failed []string
	for _, wl := range res.Workloads {
		m := map[string]float64{"ops_failed": float64(wl.OpsFailed)}
		cur.Workloads[wl.Name] = m
		if wl.OpsFailed > 0 {
			failed = append(failed, fmt.Sprintf("%s ops_failed %d", wl.Name, wl.OpsFailed))
		}
		for _, d := range decl.EndToEnd {
			m[d.Name] = wl.EndToEnd[d.Name].Median
			was := prev.Workloads[wl.Name][d.Name]
			if was == 0 {
				continue
			}
			delta, note := (m[d.Name]-was)/was, ""
			worse := sign[d.Better]*delta > d.Bound
			switch {
			case worse && repeats[d.Name]:
				note = "FAIL"
				failed = append(failed, fmt.Sprintf("%s %s %+.1f%% (bound %.0f%%)", wl.Name, d.Name, 100*delta, 100*d.Bound))
			case repeats[d.Name]:
			case prev.CPU != cur.CPU:
				note = "other session (host time)"
			case worse:
				note = "worse (host time: recorded, not gated)"
			}
			fmt.Fprintf(w, "%-14s %-15s %12.6g -> %-12.6g %+7.1f%% (bound %2.0f%%) %s\n", wl.Name, d.Name, was, m[d.Name], 100*delta, 100*d.Bound, note)
		}
		if wl.Counters != nil {
			cur.Counters[wl.Name] = wl.Counters
		}
		if moved := countersMoved(w, wl.Name, prev, wl.Counters); moved != "" && m["virt_us"] == prev.Workloads[wl.Name]["virt_us"] {
			failed = append(failed, fmt.Sprintf("%s counter %s moved with virt_us unchanged", wl.Name, moved))
		}
	}
	data, err := json.MarshalIndent(append(hist, cur), "", " ")
	if err == nil {
		err = os.WriteFile(histPath, append(data, '\n'), 0o644)
	}
	if err == nil && failed != nil {
		err = errors.New(strings.Join(failed, "; "))
	}
	return err
}

// countersMoved prints every counter of workload wl that differs from the
// previous record, with zero tolerance: they are exact for a seed. It returns
// the first one that moved ("" when none did, or when prev kept no
// counters). A counter present on one side only is printed, not returned: a
// renamed metric is not a behaviour change.
func countersMoved(w io.Writer, wl string, prev record, now map[string]float64) (first string) {
	was, ok := prev.Counters[wl]
	if !ok {
		if now != nil && prev.Date != "" {
			fmt.Fprintf(w, "%-14s counters: none in the previous record, not compared\n", wl)
		}
		return ""
	}
	var keys []string
	for k := range was {
		keys = append(keys, k)
	}
	for k := range now {
		if _, ok := was[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		a, inA := was[k]
		b, inB := now[k]
		switch {
		case inA && inB && a == b:
		case inA && inB:
			fmt.Fprintf(w, "%-14s counter %-32s %v -> %v\n", wl, k, a, b)
			if first == "" {
				first = k
			}
		case inA:
			fmt.Fprintf(w, "%-14s counter %-32s %v -> (gone)\n", wl, k, a)
		default:
			fmt.Fprintf(w, "%-14s counter %-32s (new) -> %v\n", wl, k, b)
		}
	}
	return first
}

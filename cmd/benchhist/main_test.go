package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const declJSON = `{"end_to_end": [
 {"name": "wall_s", "better": "lower", "bound": 0.15},
 {"name": "msgs_per_s", "better": "higher", "bound": 0.15},
 {"name": "allocs_per_msg", "better": "lower", "bound": 0.02},
 {"name": "alloc_mb", "better": "lower", "bound": 0.02},
 {"name": "virt_us", "better": "lower", "bound": 0.03}]}`

// result is a two-workload result.json with one metric of p2p_bw scaled and
// one of its counters bumped, and what benchhist should make of it.
type result struct {
	cpu        string
	nproc      int
	seed       int64 // 0 means 1
	opsFailed  int
	metric     string
	scale      float64
	counter    string // p2p_bw counter to add one to
	noCounters bool   // a result.json from before counters were recorded
	afterOld   bool   // the record this one is compared with has no counters
	wantErr    string // substring of the error; "" means exit 0
	wantOut    string // substring of the table
}

func (r result) write(t *testing.T, dir string) {
	t.Helper()
	base := map[string]float64{"wall_s": 1, "msgs_per_s": 1000, "allocs_per_msg": 4, "alloc_mb": 10, "virt_us": 5000}
	wl := func(name string, failed int, scaled, bumped string) map[string]any {
		e2e := map[string]any{}
		for k, v := range base {
			if k == scaled {
				v *= r.scale
			}
			e2e[k] = map[string]float64{"Median": v}
		}
		out := map[string]any{"Name": name, "OpsFailed": failed, "EndToEnd": e2e}
		if !r.noCounters {
			counters := map[string]float64{"sim.events": 2060022, "hca.send_engine_util": 0.125}
			if bumped != "" {
				counters[bumped]++
			}
			out["Counters"] = counters
		}
		return out
	}
	seed := r.seed
	if seed == 0 {
		seed = 1
	}
	data, err := json.Marshal(map[string]any{
		"host": map[string]any{"cpu": r.cpu, "nproc": r.nproc, "go": "go1.24.0"}, "seed": seed,
		"workloads": []any{wl("p2p_bw", r.opsFailed, r.metric, r.counter), wl("p2p_lat", 0, "", "")},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "result.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGateWhatRepeats feeds benchhist a sequence of runs, each compared with
// the first: only failed ops, the metrics that repeat and a counter that
// moved under a fixed virt_us fail it, host time is flagged, another host
// class or seed is recorded and not compared, and every run lands in the
// history.
func TestGateWhatRepeats(t *testing.T) {
	const xeon = "Xeon"
	for _, c := range []struct {
		name string
		next result
	}{
		{"identical", result{cpu: xeon, nproc: 2, wantOut: "against: first"}},
		{"virt_us +5%", result{cpu: xeon, nproc: 2, metric: "virt_us", scale: 1.05, wantErr: "p2p_bw virt_us +5.0%"}},
		{"allocs_per_msg +3%", result{cpu: xeon, nproc: 2, metric: "allocs_per_msg", scale: 1.03, wantErr: "p2p_bw allocs_per_msg +3.0%"}},
		{"alloc_mb +3%", result{cpu: xeon, nproc: 2, metric: "alloc_mb", scale: 1.03, wantErr: "p2p_bw alloc_mb +3.0%"}},
		{"virt_us +2% is inside the bound", result{cpu: xeon, nproc: 2, metric: "virt_us", scale: 1.02}},
		{"wall_s +50%", result{cpu: xeon, nproc: 2, metric: "wall_s", scale: 1.5, wantOut: "+50.0% (bound 15%) worse (host time"}},
		{"msgs_per_s -50%", result{cpu: xeon, nproc: 2, metric: "msgs_per_s", scale: 0.5, wantOut: "-50.0% (bound 15%) worse (host time"}},
		{"msgs_per_s +50% is a gain", result{cpu: xeon, nproc: 2, metric: "msgs_per_s", scale: 1.5, wantOut: "+50.0% (bound 15%) \n"}},
		{"other nproc", result{cpu: xeon, nproc: 8, metric: "virt_us", scale: 2, wantOut: "no comparable record"}},
		{"other cpu", result{cpu: "EPYC", nproc: 2, metric: "virt_us", scale: 2, wantOut: "no comparable record"}},
		{"ops_failed", result{cpu: xeon, nproc: 2, opsFailed: 1, wantErr: "p2p_bw ops_failed 1"}},
		{"other seed", result{cpu: xeon, nproc: 2, seed: 2, metric: "virt_us", scale: 2, counter: "sim.events", wantOut: "no comparable record"}},
		{"counter moved, virt_us fixed", result{cpu: xeon, nproc: 2, counter: "sim.events",
			wantErr: "p2p_bw counter sim.events moved with virt_us unchanged", wantOut: "counter sim.events                       2.060022e+06 -> 2.060023e+06"}},
		{"counter and virt_us moved", result{cpu: xeon, nproc: 2, metric: "virt_us", scale: 1.01, counter: "hca.send_engine_util",
			wantOut: "counter hca.send_engine_util             0.125 -> 1.125"}},
		{"old record has no counters", result{cpu: xeon, nproc: 2, counter: "sim.events", afterOld: true,
			wantOut: "p2p_bw         counters: none in the previous record, not compared"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(declJSON), 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			result{cpu: xeon, nproc: 2, noCounters: c.next.afterOld}.write(t, dir)
			if err := run(dir, "2026-10-04", "first", &out); err != nil {
				t.Fatalf("first record on an empty history: %v", err)
			}
			if !strings.Contains(out.String(), "no comparable record") {
				t.Errorf("first record printed %q", out.String())
			}
			out.Reset()
			c.next.write(t, dir)
			err := run(dir, "2026-10-05", "second", &out)
			switch {
			case c.next.wantErr == "" && err != nil:
				t.Errorf("exit 1: %v\n%s", err, out.String())
			case c.next.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.next.wantErr)):
				t.Errorf("err = %v, want one naming %q", err, c.next.wantErr)
			}
			if err != nil && strings.Contains(err.Error(), "p2p_lat") {
				t.Errorf("err names the untouched workload: %v", err)
			}
			if !strings.Contains(out.String(), c.next.wantOut) {
				t.Errorf("table lacks %q:\n%s", c.next.wantOut, out.String())
			}
			var hist []record
			if err := readJSON(filepath.Join(dir, "BENCH_history.json"), &hist); err != nil {
				t.Fatal(err)
			}
			if len(hist) != 2 || hist[1].Commit != "second" || hist[1].CPU != c.next.cpu || hist[1].NProc != c.next.nproc ||
				hist[1].Workloads["p2p_bw"]["ops_failed"] != float64(c.next.opsFailed) || hist[1].Workloads["p2p_lat"]["virt_us"] != 5000 ||
				hist[1].Counters["p2p_lat"]["sim.events"] != 2060022 || (hist[0].Counters == nil) != c.next.afterOld {
				t.Errorf("history after two runs: %+v", hist)
			}
		})
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"testing"
)

// The benchmark starts its repetitions as child processes of its own
// binary; under `go test` that binary is the test binary, so a -child
// invocation is handed to the program instead of the test runner.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricJSON `json:"end_to_end"`
	PerLayer  []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runQuick runs the program in-process at -quick scale and decodes the
// result object from the last line of its output.
func runQuick(t *testing.T, args ...string) (int, resultLine) {
	t.Helper()
	var out bytes.Buffer
	code := run(append([]string{"-quick", "-out", t.TempDir()}, args...), &out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out.Bytes())
	}
	return code, res
}

// TestNamesMatchBenchmarkJSON pins the contract between the program and
// BENCHMARK.json: the workload names, and for each workload exactly the
// declared end-to-end metrics with -trace 0 and exactly the declared
// per-layer metrics with -trace 1, units included.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]metricJSON{decl.EndToEnd, decl.PerLayer} {
			code, res := runQuick(t, "-workload", w.name, "-trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: exit %d, %+v", w.name, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %d printed %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !valid.MatchString(d.Name):
					t.Errorf("metric name %q is outside the naming rule", d.Name)
				case !ok:
					t.Errorf("%s -trace %d did not print %s", w.name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: unit %q printed, %q declared", d.Name, got.Unit, d.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s %s = %v, end-to-end metrics are never 0", w.name, d.Name, got.Value)
				}
			}
		}
	}
	for i, d := range decl.EndToEnd {
		if e := endToEnd[i]; e.Name != d.Name || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, d, e)
		}
	}
	for i, d := range decl.PerLayer {
		if e := perLayer[i]; e.Name != d.Name || e.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, d, e)
		}
	}
}

// TestDeterministicAcrossRepetitions: counts and virtual-time numbers are a
// pure function of the seed. measure compares every repetition with the
// first and reports a difference as a failed op; a second measurement must
// reproduce the first one's numbers too.
func TestDeterministicAcrossRepetitions(t *testing.T) {
	for _, w := range workloads {
		o := &options{seed: 7, quick: true, out: t.TempDir()}
		a, err := measure(&w, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.OpsFailed != 0 {
			t.Errorf("%s: %d ops failed: %s", w.name, a.OpsFailed, a.Failure)
		}
		if a.Counters["buf.live_after"] != 0 {
			t.Errorf("%s: %v payload blocks live after the run", w.name, a.Counters["buf.live_after"])
		}
		if w.name != "p2p_lat" {
			continue // one workload is enough to pin measurement-to-measurement identity
		}
		b, err := measure(&w, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.value("virt_us") != b.value("virt_us") || a.Ops != b.Ops || !maps.Equal(a.Counters, b.Counters) {
			t.Errorf("%s: two measurements of seed 7 differ: virt %v vs %v, ops %d vs %d", w.name,
				a.value("virt_us"), b.value("virt_us"), a.Ops, b.Ops)
		}
	}
}

// TestBreakFails: a corrupted receive buffer must surface as failed ops and
// a non-zero exit, or the checker checks nothing.
func TestBreakFails(t *testing.T) {
	for _, w := range workloads {
		code, res := runQuick(t, "-break", "-workload", w.name)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s -break: exit %d, correct %v, failed %d; want a failure", w.name, code, res.Correct, res.Failed)
		}
	}
}

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{0, 5, 19, 20, 21, 100, 999, 1000, 5000} {
		i, ok := tailIndex(n)
		if ok && (n-1-i < 10 || i < n/2) {
			t.Errorf("n=%d: index %d leaves %d samples beyond", n, i, n-1-i)
		}
		if !ok && n >= 22 {
			t.Errorf("n=%d: no tail although the median leaves 10 beyond", n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}

// Command benchab compares the benchmark at a git revision (base) with the
// working tree's (head) in alternating pairs of runs, the only comparison
// of host-time metrics that holds on a shared machine: one run each, or runs
// days apart, differ by more than most changes do. From the repository root,
//
//	go run ./cmd/benchab [-n 10] [-seed 1] [-seconds 5] [-workloads p2p_lat,scale_ring] REV
//
// checks REV out with `git worktree add` under .bench_build/, builds both
// benchmark binaries there (GOTOOLCHAIN=local, the Go cache in
// .bench_build/gocache, as benchmark/run.sh does) and runs -n pairs per
// workload through the binaries' own flags (-workload W -seed S -seconds T
// -trace 0), base first in even pairs and head first in odd ones. For each
// end-to-end metric of BENCHMARK.json it prints each side's median and
// quartiles, the median of the pairs' head/base ratios, and how many pairs
// each side won (a tie counts for neither). It writes nothing under
// benchmark/ and removes the worktree when it is done. A run with a failed
// op is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	n := flag.Int("n", 10, "pairs of runs per workload")
	seed := flag.Int64("seed", 1, "benchmark seed")
	seconds := flag.Float64("seconds", 5, "timed seconds per run")
	only := flag.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() != 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab [-n pairs] [-seed S] [-seconds T] [-workloads a,b] REV")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *n, *seed, *seconds, *only, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct{ Name, Better string }

func run(rev string, n int, seed int64, seconds float64, only string, w io.Writer) error {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &decl)
	}
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	tree := filepath.Join(build, "benchab-base")
	exec.Command("git", "worktree", "remove", "--force", tree).Run() // a worktree left by an interrupted run
	if out, err := exec.Command("git", "worktree", "add", "--detach", tree, rev).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", rev, err, out)
	}
	defer exec.Command("git", "worktree", "remove", "--force", tree).Run()
	bins := [2]string{filepath.Join(build, "benchab-base.bin"), filepath.Join(build, "benchab-head.bin")}
	for i, src := range []string{filepath.Join(tree, "benchmark"), "benchmark"} {
		cmd := exec.Command("go", "build", "-o", bins[i], ".")
		cmd.Dir = src
		cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"), "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", src, err, out)
		}
	}
	for _, wl := range decl.Workloads {
		if only != "" && !slices.Contains(strings.Split(only, ","), wl.Name) {
			continue
		}
		var runs [2][]map[string]float64 // base, head
		for i := range n {
			for _, side := range [2]int{i % 2, 1 - i%2} {
				m, err := runOnce(bins[side], wl.Name, seed, seconds)
				if err != nil {
					return err
				}
				runs[side] = append(runs[side], m)
			}
		}
		fmt.Fprintf(w, "%s: %d pairs, seed %d, %gs a run; base %s, head the working tree\n", wl.Name, n, seed, seconds, rev)
		for _, d := range decl.EndToEnd {
			s := summarize(values(runs[0], d.Name), values(runs[1], d.Name), d.Better)
			fmt.Fprintf(w, "  %-15s base %-32s head %-32s ratio %.4f  pairs won: head %d, base %d\n",
				d.Name, spread(s.Base), spread(s.Head), s.Ratio, s.HeadWins, s.BaseWins)
		}
	}
	return nil
}

// runOnce runs one benchmark binary on one workload and returns the metrics
// of the JSON object on its last line of output.
func runOnce(bin, wl string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(bin, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -workload %s: %v (failed ops exit 1)", bin, wl, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s -workload %s: last line: %w", bin, wl, err)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

func values(runs []map[string]float64, name string) []float64 {
	v := make([]float64, len(runs))
	for i, m := range runs {
		v[i] = m[name]
	}
	return v
}

// summary compares one metric over paired runs.
type summary struct {
	Base, Head         [3]float64 // first quartile, median, third quartile
	Ratio              float64    // median of the pairs' head/base ratios
	HeadWins, BaseWins int        // pairs a side was strictly better in
}

// summarize compares head[i] with base[i], pair by pair; better is
// BENCHMARK.json's "lower" or "higher". Pairs whose base reads 0 have no
// ratio; with none left the ratio is 1.
func summarize(base, head []float64, better string) summary {
	s := summary{Base: quartiles(base), Head: quartiles(head)}
	var ratios []float64
	for i := range base {
		if base[i] != 0 {
			ratios = append(ratios, head[i]/base[i])
		}
		d := head[i] - base[i]
		if better == "higher" {
			d = -d
		}
		switch {
		case d < 0:
			s.HeadWins++
		case d > 0:
			s.BaseWins++
		}
	}
	s.Ratio = 1
	if len(ratios) > 0 {
		s.Ratio = quartiles(ratios)[1]
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolated linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		x := p * float64(len(s)-1)
		lo := int(x)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

func spread(q [3]float64) string {
	return fmt.Sprintf("%.6g (%.6g–%.6g)", q[1], q[0], q[2])
}

// Covergate enforces the statement-coverage floor. It parses one or more Go
// cover profiles (mode: set/count/atomic), merges blocks that appear in
// several profiles (a block is covered if any profile covered it), computes
// the covered-statement percentage, and compares it to the floor recorded
// in COVERAGE.txt. The gate fails when coverage drops more than the epsilon
// below the floor; -record rewrites the floor from the current measurement.
//
// Usage:
//
//	go test -coverprofile=cover.out ./internal/...
//	go run ./cmd/covergate -profile cover.out [-floor COVERAGE.txt] [-record]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// epsilon absorbs noise from test-order or timing-dependent paths; real
// coverage regressions are much larger than a tenth of a point.
const epsilon = 0.1

// block identifies one source region of a cover profile line.
type block struct {
	pos   string // file:startLine.startCol,endLine.endCol
	stmts int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "covergate: %v\n", err)
		os.Exit(1)
	}
}

// run is the gate: it parses args, merges the profiles and checks (or with
// -record, rewrites) the floor, reporting the verdict on out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("covergate", flag.ContinueOnError)
	profile := fs.String("profile", "cover.out", "comma-separated cover profile path(s)")
	floorFile := fs.String("floor", "COVERAGE.txt", "file holding the coverage floor percentage")
	record := fs.Bool("record", false, "rewrite the floor from the current measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}

	covered := map[block]bool{}
	for _, p := range strings.Split(*profile, ",") {
		if err := readProfile(strings.TrimSpace(p), covered); err != nil {
			return fmt.Errorf("reading %s: %v", p, err)
		}
	}
	if len(covered) == 0 {
		return fmt.Errorf("no coverage blocks found in %s", *profile)
	}

	var total, hit int
	for b, ok := range covered {
		total += b.stmts
		if ok {
			hit += b.stmts
		}
	}
	pct := 100 * float64(hit) / float64(total)

	if *record {
		body := fmt.Sprintf("%s%.1f\n", floorHeader, pct)
		if err := os.WriteFile(*floorFile, []byte(body), 0o644); err != nil {
			return fmt.Errorf("recording floor: %v", err)
		}
		fmt.Fprintf(out, "covergate: recorded floor %.1f%% (%d/%d statements) to %s\n", pct, hit, total, *floorFile)
		return nil
	}

	floor, err := readFloor(*floorFile)
	if err != nil {
		return fmt.Errorf("reading floor: %v", err)
	}
	if pct+epsilon < floor {
		return fmt.Errorf("coverage %.1f%% fell below the %.1f%% floor in %s (%d/%d statements)",
			pct, floor, *floorFile, hit, total)
	}
	fmt.Fprintf(out, "covergate: %.1f%% >= %.1f%% floor (%d/%d statements)\n", pct, floor, hit, total)
	return nil
}

// readProfile folds one cover profile into the block map. A block already
// present stays covered if any profile covered it.
func readProfile(path string, covered map[block]bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file:start,end numStmts count
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf("malformed profile line: %q", line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("malformed statement count in %q", line)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("malformed hit count in %q", line)
		}
		b := block{pos: fields[0], stmts: stmts}
		covered[b] = covered[b] || count > 0
	}
	return sc.Err()
}

// readFloor parses the floor percentage, tolerating comments and blank lines.
// floorHeader keeps the floor file self-documenting across -record
// rewrites (readFloor skips # lines).
const floorHeader = `# Statement-coverage floor for internal/{core,adi,sim,chaos,buf,harness,regcache,fabric,topo,hca,ib,trace,mpi,shmem,nas},
# enforced by ` + "`make cover`" + ` (cmd/covergate). Re-record with
#   go run ./cmd/covergate -record
# only when a PR legitimately moves coverage.
`

func readFloor(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strconv.ParseFloat(strings.TrimSuffix(line, "%"), 64)
	}
	return 0, fmt.Errorf("no floor value in %s", path)
}

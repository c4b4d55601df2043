package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ib12x/internal/adi"
	"ib12x/internal/bench"
	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/mpi"
)

// The -sweep mode: the full kernel x class x layout x policy x eager-protocol
// matrix in synthetic mode (it measures communication time, not numerics),
// fanned out over the harness worker pool and printed one row per cell in
// key order. A cell whose class does not divide over its rank count is
// recorded as skipped, not failed.

// sweepCell is one point of the matrix.
type sweepCell struct {
	key    string // kernel/class/NODESxPPN/policy/proto
	kernel string
	class  byte
	cfg    mpi.Config
}

var eagerProtos = map[string]adi.EagerProto{
	"sendrecv": adi.EagerSendRecv,
	"rdma":     adi.EagerRDMAWrite,
}

// sweepCells expands the comma-separated dimension lists into the matrix,
// sorted by key.
func sweepCells(kernels, classes, procs, policies, protos string, qps int) ([]sweepCell, error) {
	var cells []sweepCell
	for _, kernel := range strings.Split(kernels, ",") {
		kernel = strings.ToLower(strings.TrimSpace(kernel))
		for _, class := range strings.Split(classes, ",") {
			class = strings.TrimSpace(class)
			if len(class) != 1 {
				return nil, fmt.Errorf("bad class %q", class)
			}
			for _, layout := range strings.Split(procs, ",") {
				nodes, ppn, err := parseLayout(layout)
				if err != nil {
					return nil, err
				}
				for _, policy := range strings.Split(policies, ",") {
					policy = strings.ToLower(strings.TrimSpace(policy))
					kind, err := core.ParseKind(policy)
					if err != nil {
						return nil, err
					}
					for _, proto := range strings.Split(protos, ",") {
						proto = strings.ToLower(strings.TrimSpace(proto))
						ep, ok := eagerProtos[proto]
						if !ok {
							return nil, fmt.Errorf("unknown eager protocol %q (sendrecv | rdma)", proto)
						}
						cells = append(cells, sweepCell{
							key:    fmt.Sprintf("%s/%s/%dx%d/%s/%s", kernel, class, nodes, ppn, policy, proto),
							kernel: kernel,
							class:  class[0],
							cfg: mpi.Config{
								Nodes: nodes, ProcsPerNode: ppn, QPsPerPort: qps,
								Policy: kind, EagerProto: ep,
							},
						})
					}
				}
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	return cells, nil
}

func parseLayout(s string) (nodes, ppn int, err error) {
	parts := strings.SplitN(strings.TrimSpace(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad layout %q (want NODESxPPN, e.g. 2x1)", s)
	}
	if nodes, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("bad layout %q: %v", s, err)
	}
	if ppn, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("bad layout %q: %v", s, err)
	}
	if nodes < 1 || ppn < 1 {
		return 0, 0, fmt.Errorf("bad layout %q", s)
	}
	return nodes, ppn, nil
}

// runSweep runs every cell of the matrix and prints one row per cell.
func runSweep(w io.Writer, kernels, classes, procs, policies, protos string, qps int) error {
	cells, err := sweepCells(kernels, classes, procs, policies, protos, qps)
	if err != nil {
		return err
	}
	rows, err := harness.Map(cells, func(c sweepCell) (string, error) {
		res, err := bench.RunNAS(c.cfg, c.kernel, c.class, false)
		switch {
		case errors.Is(err, bench.ErrLayout):
			return fmt.Sprintf("  %-28s skipped: %v", c.key, err), nil
		case err != nil:
			return "", fmt.Errorf("%s: %w", c.key, err)
		case !res.Verified:
			return fmt.Sprintf("  %-28s %10.4f s  FAILED VERIFICATION", c.key, res.Elapsed.Seconds()), nil
		}
		return fmt.Sprintf("  %-28s %10.4f s  verified", c.key, res.Elapsed.Seconds()), nil
	})
	if err != nil {
		return err
	}
	failed := false
	for _, row := range rows {
		fmt.Fprintln(w, row)
		failed = failed || strings.HasSuffix(row, "FAILED VERIFICATION")
	}
	if failed {
		return errors.New("some cells failed verification")
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ib12x/internal/adi"
	"ib12x/internal/harness"
	"ib12x/internal/mpi"
	"ib12x/internal/nas"
)

// The -sweep mode: the full kernel x class x layout x policy x eager-protocol
// matrix through the harness worker pool, with a JSON per-cell result cache
// so an interrupted sweep resumes where it stopped. Cells run in batches and
// the cache is rewritten after every batch; cells whose class does not
// divide over the rank count are recorded as skipped, not failed.

// sweepCell is one point of the matrix.
type sweepCell struct {
	Kernel string
	Class  byte
	Nodes  int
	PPN    int
	Policy string
	Proto  string
}

func (c sweepCell) key() string {
	return fmt.Sprintf("%s/%c/%dx%d/%s/%s", c.Kernel, c.Class, c.Nodes, c.PPN, c.Policy, c.Proto)
}

// sweepResult is what the cache remembers per cell. Times are virtual, so a
// cached cell is exactly what a rerun would produce — the cache is a pure
// memoisation, never a staleness risk (unless the model changes, in which
// case delete the file).
type sweepResult struct {
	Seconds  float64 `json:"seconds"`
	Verified bool    `json:"verified"`
	Skipped  string  `json:"skipped,omitempty"` // reason the cell does not apply
}

var eagerProtos = map[string]adi.EagerProto{
	"sendrecv": adi.EagerSendRecv,
	"rdma":     adi.EagerRDMAWrite,
}

// sweepCells expands the comma-separated dimension lists into the matrix.
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
					if _, ok := policyKinds[policy]; !ok {
						return nil, fmt.Errorf("unknown policy %q", policy)
					}
					for _, proto := range strings.Split(protos, ",") {
						proto = strings.ToLower(strings.TrimSpace(proto))
						if _, ok := eagerProtos[proto]; !ok {
							return nil, fmt.Errorf("unknown eager protocol %q (sendrecv | rdma)", proto)
						}
						cells = append(cells, sweepCell{kernel, class[0], nodes, ppn, policy, proto})
					}
				}
			}
		}
	}
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

// runCell executes one matrix point in synthetic mode (the sweep measures
// communication time, not numerics).
func runCell(c sweepCell, qps int) (sweepResult, error) {
	cfg := mpi.Config{
		Nodes: c.Nodes, ProcsPerNode: c.PPN, QPsPerPort: qps,
		Policy:     policyKinds[c.Policy],
		EagerProto: eagerProtos[c.Proto],
	}
	np := cfg.Size()
	var res sweepResult
	record := func(elapsed float64, verified bool) {
		res = sweepResult{Seconds: elapsed, Verified: verified}
	}
	switch c.Kernel {
	case "is":
		cl, err := nas.ISClassByName(c.Class)
		if err != nil {
			return res, err
		}
		board := nas.NewISBoard(np)
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunIS(comm, cl, true, board)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	case "ft":
		cl, err := nas.FTClassByName(c.Class)
		if err != nil {
			return res, err
		}
		if !cl.ValidFor(np) {
			return sweepResult{Skipped: fmt.Sprintf("class %c grid does not divide over %d ranks", cl.Name, np)}, nil
		}
		board := nas.NewFTBoard(np)
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunFT(comm, cl, true, board)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	case "ep":
		cl, err := nas.EPClassByName(c.Class)
		if err != nil {
			return res, err
		}
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunEP(comm, cl, true)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	case "cg":
		cl, err := nas.CGClassByName(c.Class)
		if err != nil {
			return res, err
		}
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunCG(comm, cl)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	case "mg":
		cl, err := nas.MGClassByName(c.Class)
		if err != nil {
			return res, err
		}
		if cl.N%np != 0 {
			return sweepResult{Skipped: fmt.Sprintf("class %c grid does not divide over %d ranks", cl.Name, np)}, nil
		}
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunMG(comm, cl, true)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	case "lu":
		cl, err := nas.LUClassByName(c.Class)
		if err != nil {
			return res, err
		}
		_, err = mpi.Run(cfg, func(comm *mpi.Comm) {
			r := nas.RunLU(comm, cl)
			if comm.Rank() == 0 {
				record(r.Elapsed.Seconds(), r.Verified)
			}
		})
		return res, err
	}
	return res, fmt.Errorf("unknown kernel %q", c.Kernel)
}

func loadCache(path string) (map[string]sweepResult, error) {
	cache := make(map[string]sweepResult)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return cache, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &cache); err != nil {
		return nil, fmt.Errorf("%s: %v (delete it to restart the sweep)", path, err)
	}
	return cache, nil
}

func saveCache(path string, cache map[string]sweepResult) error {
	data, err := json.MarshalIndent(cache, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runSweep drives the matrix: load the cache, run the pending cells in
// batches (each batch fans out over the harness pool, then the cache is
// rewritten — the resume point), and print every cell in deterministic
// order at the end.
func runSweep(kernels, classes, procs, policies, protos string, qps, batch int, cachePath string) error {
	cells, err := sweepCells(kernels, classes, procs, policies, protos, qps)
	if err != nil {
		return err
	}
	cache, err := loadCache(cachePath)
	if err != nil {
		return err
	}
	var pending []sweepCell
	for _, c := range cells {
		if _, ok := cache[c.key()]; !ok {
			pending = append(pending, c)
		}
	}
	fmt.Printf("sweep: %d cells (%d cached, %d to run), cache %s\n",
		len(cells), len(cells)-len(pending), len(pending), cachePath)
	if batch < 1 {
		batch = 1
	}
	for start := 0; start < len(pending); start += batch {
		chunk := pending[start:min(start+batch, len(pending))]
		results, err := harness.Map(chunk, func(c sweepCell) (sweepResult, error) {
			return runCell(c, qps)
		})
		if err != nil {
			return err
		}
		for i, r := range results {
			cache[chunk[i].key()] = r
		}
		if err := saveCache(cachePath, cache); err != nil {
			return err
		}
		fmt.Printf("sweep: %d/%d done\n", min(start+batch, len(pending)), len(pending))
	}
	keys := make([]string, 0, len(cells))
	for _, c := range cells {
		keys = append(keys, c.key())
	}
	sort.Strings(keys)
	fail := false
	for _, k := range keys {
		r := cache[k]
		switch {
		case r.Skipped != "":
			fmt.Printf("  %-28s skipped: %s\n", k, r.Skipped)
		case r.Verified:
			fmt.Printf("  %-28s %10.4f s  verified\n", k, r.Seconds)
		default:
			fmt.Printf("  %-28s %10.4f s  FAILED VERIFICATION\n", k, r.Seconds)
			fail = true
		}
	}
	if fail {
		return fmt.Errorf("some cells failed verification")
	}
	return nil
}

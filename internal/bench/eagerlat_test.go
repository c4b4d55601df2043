package bench

import (
	"strings"
	"testing"

	"ib12x/internal/stats"
)

// TestEagerLatencyTableStrictWin pins the PR's acceptance bar: under every
// scheduling policy the RDMA-write eager ring sits strictly below the
// send/recv channel at every size up to 1KB (and, with the current model
// constants, at every size in the sweep — the poll-cost saving is
// per-message, not per-byte).
func TestEagerLatencyTableStrictWin(t *testing.T) {
	tab, err := EagerLatencyTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	cases := eagerLatCases()
	if len(tab.Series) != len(cases) {
		t.Fatalf("%d series, want %d", len(tab.Series), len(cases))
	}
	// Rows alternate send/recv, rdma-write per policy.
	for i := 0; i < len(tab.Series); i += 2 {
		sr, ring := tab.Series[i], tab.Series[i+1]
		if !strings.Contains(sr.Name, "send/recv") || !strings.Contains(ring.Name, "rdma-write") {
			t.Fatalf("row pairing broken: %q / %q", sr.Name, ring.Name)
		}
		for j, p := range ring.Points {
			base := sr.Points[j]
			if p.Value <= 0 || base.Value <= 0 {
				t.Errorf("%s at %d: non-positive latency (%.3f / %.3f us)", ring.Name, p.X, base.Value, p.Value)
			}
			if p.X > 1024 {
				continue // the acceptance bar covers <=1KB; larger sizes informational
			}
			if p.Value >= base.Value {
				t.Errorf("%s at %dB: ring %.3f us not strictly below send/recv %.3f us",
					ring.Name, p.X, p.Value, base.Value)
			}
		}
	}
}

// TestEagerLatencyTableSerialParallelIdentical pins determinism: the table
// renders bit-identically from serial and parallel harness runs.
func TestEagerLatencyTableSerialParallelIdentical(t *testing.T) {
	serialParallelIdentical(t, func() (*stats.Table, error) { return EagerLatencyTable(quick) })
}

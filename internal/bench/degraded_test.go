package bench

import (
	"strings"
	"testing"

	"ib12x/internal/stats"
)

// TestDegradedRailTable checks the one-rail-dead sweep produces a full
// matrix: every policy column, every Figure 6 size, every cell a positive
// bandwidth despite a quarter of the fabric being dead from t=0.
func TestDegradedRailTable(t *testing.T) {
	tab, err := DegradedRailTable(FigOpts{Quick: true, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != len(degradedPolicies) {
		t.Fatalf("%d series, want %d", len(tab.Series), len(degradedPolicies))
	}
	for _, s := range tab.Series {
		if len(s.Points) != 7 {
			t.Errorf("%s: %d points, want 7", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Value <= 0 {
				t.Errorf("%s at %d: bandwidth %.2f MB/s, want > 0", s.Name, p.X, p.Value)
			}
		}
	}
	if !strings.Contains(tab.Format(), "one rail dead") {
		t.Error("table title lost its degraded-mode marker")
	}
}

// TestDegradedRailTableSerialParallelIdentical pins the acceptance bar for
// the supplementary table: the serial and parallel harness runs must render
// bit-identically.
func TestDegradedRailTableSerialParallelIdentical(t *testing.T) {
	serialParallelIdentical(t, func() (*stats.Table, error) { return DegradedRailTable(FigOpts{Quick: true, Window: 8}) })
}

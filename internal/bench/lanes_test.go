package bench

import (
	"strings"
	"testing"

	"ib12x/internal/stats"
)

// TestLaneCollTable checks the ablation produces the full matrix — every
// (topology, collective, algorithm) series with every size a positive
// per-operation time.
func TestLaneCollTable(t *testing.T) {
	tab, err := LaneCollTable(FigOpts{Quick: true, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(laneCollCases(loop{})); len(tab.Series) != want {
		t.Fatalf("%d series, want %d", len(tab.Series), want)
	}
	for _, s := range tab.Series {
		if len(s.Points) != len(laneCollSizes) {
			t.Errorf("%s: %d points, want %d", s.Name, len(s.Points), len(laneCollSizes))
		}
		for _, p := range s.Points {
			if p.Value <= 0 {
				t.Errorf("%s at %d: %.2f us, want > 0", s.Name, p.X, p.Value)
			}
		}
	}
	if !strings.Contains(tab.Format(), "lane-decomposed") {
		t.Error("table title lost its lane-ablation marker")
	}
}

// TestLaneCollTableSerialParallelIdentical pins the acceptance bar: the
// serial and parallel harness runs of the ablation render bit-identically.
func TestLaneCollTableSerialParallelIdentical(t *testing.T) {
	serialParallelIdentical(t, func() (*stats.Table, error) { return LaneCollTable(FigOpts{Quick: true, Window: 8}) })
}

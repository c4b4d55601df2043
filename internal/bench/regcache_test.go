package bench

import (
	"math"
	"strings"
	"testing"

	"ib12x/internal/stats"
)

// TestRegCacheTable pins the physics of the cold/warm split: a full matrix,
// warm bandwidth at least cold bandwidth at every size (cold re-pins its
// whole window every iteration; warm never pays after warmup), and warm
// equal to the registration-free baseline within tolerance (steady-state
// hits are free, so the warm pipeline is the baseline pipeline).
func TestRegCacheTable(t *testing.T) {
	tab, err := RegCacheTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != len(regModes) {
		t.Fatalf("%d series, want %d", len(tab.Series), len(regModes))
	}
	base := tab.Get("registration free (baseline)")
	warm := tab.Get("pin-down cache, warm")
	cold := tab.Get("pin-down cache, cold")
	if base == nil || warm == nil || cold == nil {
		t.Fatalf("missing series in table:\n%s", tab.Format())
	}
	for _, p := range warm.Points {
		w := p.Value
		c, ok := cold.At(p.X)
		if !ok || w <= 0 || c <= 0 {
			t.Fatalf("size %d: missing or non-positive cells (warm=%v cold=%v)", p.X, w, c)
		}
		if w < c {
			t.Errorf("size %d: warm %.2f MB/s below cold %.2f MB/s", p.X, w, c)
		}
		b, _ := base.At(p.X)
		if tol := math.Abs(w-b) / b; tol > 0.01 {
			t.Errorf("size %d: warm %.2f MB/s deviates %.2f%% from baseline %.2f MB/s (want <= 1%%)",
				p.X, w, 100*tol, b)
		}
	}
	// The split must be real, not a rounding artifact: at the largest size
	// the cold pass pays ~window*(syscall + 256 pages) per iteration.
	if w, _ := warm.At(1 << 20); true {
		c, _ := cold.At(1 << 20)
		if c >= w*0.99 {
			t.Errorf("1MB: cold %.2f MB/s not measurably below warm %.2f MB/s", c, w)
		}
	}
	if !strings.Contains(tab.Format(), "registration cache") {
		t.Error("table title lost its registration-cache marker")
	}
}

// TestRegCacheTableSerialParallelIdentical pins the acceptance bar for the
// supplementary table: serial and parallel harness runs must render
// bit-identically.
func TestRegCacheTableSerialParallelIdentical(t *testing.T) {
	serialParallelIdentical(t, func() (*stats.Table, error) { return RegCacheTable(quick) })
}

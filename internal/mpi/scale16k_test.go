//go:build scale

package mpi

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// peakRSSCeiling bounds the 16 384-node ring's peak resident set.
const peakRSSCeiling = 1 << 30

// TestScaleRing16384 runs the scale ring at 16 384 nodes and holds the test
// process's peak resident set (VmHWM) under 1 GiB. It takes about 10 s and
// about 1 GB, so it is behind the scale build tag: `make scale` runs it
// alone, in a process of its own, so the peak is the ring's.
func TestScaleRing16384(t *testing.T) {
	scaleRing(t, 16384)
	hwm := vmHWM(t)
	t.Logf("peak RSS (VmHWM) %.0f MB", float64(hwm)/(1<<20))
	if hwm > peakRSSCeiling {
		t.Errorf("peak RSS %d MB over the %d MB ceiling", hwm>>20, peakRSSCeiling>>20)
	}
}

// vmHWM reads the process's peak resident set size from /proc/self/status.
func vmHWM(t *testing.T) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmHWM %q: %v", v, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmHWM line in /proc/self/status")
	return 0
}

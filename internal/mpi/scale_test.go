package mpi

import (
	"runtime"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/sim"
)

// scaleHeapCeiling bounds the live heap of the 1024-node ring below at about
// 1.5× its reading. With connections wired on first use and a sparse peer
// table it holds 21.4 MB; a dense per-rank table added 8 MB, and wiring
// every pair up front needed about 3 GB.
const scaleHeapCeiling = 32 << 20

// TestScaleRing1024: a 1024-node three-tier fat tree runs one 64 KB
// Sendrecv round (each rank to its right neighbour) plus the drain barrier,
// and the live heap at the end of rank 0's body stays under the ceiling.
func TestScaleRing1024(t *testing.T) {
	const n = 64 << 10
	c := Config{Nodes: 1024, NodesPerSwitch: 16, Tiers: 3, SpinesPerPod: 4, QPsPerPort: 4,
		Policy: core.EPC, Deadline: sim.Second}
	var heap uint64
	mustRun(t, c, func(cm *Comm) {
		me, p := cm.Rank(), cm.Size()
		cm.SendrecvN((me+1)%p, 0, nil, n, (me+p-1)%p, 0, nil, n)
		if me == 0 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap = ms.HeapAlloc
		}
	})
	t.Logf("live heap at rank 0's end: %.1f MB", float64(heap)/(1<<20))
	if heap > scaleHeapCeiling {
		t.Errorf("live heap %d MB over the %d MB ceiling", heap>>20, scaleHeapCeiling>>20)
	}
}

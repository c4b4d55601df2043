package mpi

import (
	"runtime"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/sim"
)

// scaleHeapCeiling bounds the live heap of the 1024-node ring below at about
// 1.5× its reading. With connections wired on first use, a sparse peer
// table, per-port pipeline state, rails built on first post and QPs
// without an inline receive queue it holds 13.3 MB; before the last three
// it held 21.4 MB, a dense per-rank table added 8 MB, and wiring every
// pair up front needed about 3 GB.
const scaleHeapCeiling = 20 << 20

// scaleRing runs one 64 KB Sendrecv round (each rank to its right
// neighbour) on a nodes-node three-tier fat tree, plus the drain barrier,
// and returns the live heap at the end of rank 0's body. It also logs the
// stack and heap objects in use when the last rank starts, with every
// other rank parked in its Sendrecv: what a parked rank holds.
func scaleRing(t *testing.T, nodes int) uint64 {
	t.Helper()
	const n = 64 << 10
	c := Config{Nodes: nodes, NodesPerSwitch: 16, Tiers: 3, SpinesPerPod: 4, QPsPerPort: 4,
		Policy: core.EPC, Deadline: sim.Second}
	var parked, end runtime.MemStats
	mustRun(t, c, func(cm *Comm) {
		me, p := cm.Rank(), cm.Size()
		if me == p-1 {
			runtime.GC()
			runtime.ReadMemStats(&parked)
		}
		cm.SendrecvN((me+1)%p, 0, nil, n, (me+p-1)%p, 0, nil, n)
		if me == 0 {
			runtime.GC()
			runtime.ReadMemStats(&end)
		}
	})
	t.Logf("%d nodes: live heap at rank 0's end %.1f MB; with %d ranks parked: %.1f KB of stack and %.0f heap objects per rank",
		nodes, float64(end.HeapAlloc)/(1<<20), nodes-1,
		float64(parked.StackInuse)/float64(nodes)/1024, float64(parked.HeapObjects)/float64(nodes))
	return end.HeapAlloc
}

// TestScaleRing1024: a 1024-node ring's live heap at the end of rank 0's
// body stays under the ceiling.
func TestScaleRing1024(t *testing.T) {
	if heap := scaleRing(t, 1024); heap > scaleHeapCeiling {
		t.Errorf("live heap %d MB over the %d MB ceiling", heap>>20, scaleHeapCeiling>>20)
	}
}

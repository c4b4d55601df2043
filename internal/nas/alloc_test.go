package nas

import (
	"runtime"
	"testing"

	"ib12x/internal/mpi"
)

// allocBytes reports the bytes the whole process allocated while body ran
// on every rank of the oracle world (world build included).
func allocBytes(t *testing.T, body func(c *mpi.Comm)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mpi.Run(oracleConfig, body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNASIterationsReuseBuffers pins that the kernels' per-run scratch is
// allocated once: doubling a class's iteration count may only add the
// simulation's own per-message allocations, not another field, strip or
// key array per iteration. Each bound is a tenth of what one added
// iteration allocated on this 2×2 world when every iteration made its
// buffers anew: FT S 12 589 818 B, CG S 1 600 955 B, LU S 24 620 B and
// IS S 1 192 910 B (real mode). What is left is the simulation's own
// per-message allocation; IS's is mostly mpi.AllreduceInt64 packing its
// 1 024 bucket counts.
func TestNASIterationsReuseBuffers(t *testing.T) {
	cases := []struct {
		name  string
		iters int
		bound uint64                            // bytes per added iteration
		job   func(iters int) func(c *mpi.Comm) // one job's rank body
	}{
		{"FT S", FTClassS.Iterations, 1_258_981, func(iters int) func(c *mpi.Comm) {
			class := FTClassS
			class.Iterations = iters
			board := NewFTBoard(oracleConfig.Size())
			return func(c *mpi.Comm) { RunFT(c, class, false, board) }
		}},
		{"CG S", CGClassS.Niter, 160_095, func(iters int) func(c *mpi.Comm) {
			class := CGClassS
			class.Niter = iters
			return func(c *mpi.Comm) { RunCG(c, class) }
		}},
		{"LU S", LUClassS.Iterations, 2_462, func(iters int) func(c *mpi.Comm) {
			class := LUClassS
			class.Iterations = iters
			return func(c *mpi.Comm) { RunLU(c, class) }
		}},
		{"IS S", ISClassS.Iterations, 119_291, func(iters int) func(c *mpi.Comm) {
			class := ISClassS
			class.Iterations = iters
			return func(c *mpi.Comm) { RunIS(c, class, false, nil) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			once := allocBytes(t, tc.job(tc.iters))
			twice := allocBytes(t, tc.job(2*tc.iters))
			per := (int64(twice) - int64(once)) / int64(tc.iters)
			t.Logf("%d iterations: %d B, %d iterations: %d B, %d B per added iteration (bound %d)",
				tc.iters, once, 2*tc.iters, twice, per, tc.bound)
			if per > int64(tc.bound) {
				t.Errorf("each added iteration allocates %d B, over the %d B bound", per, tc.bound)
			}
		})
	}
}

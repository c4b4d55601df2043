package nas

import (
	"math/cmplx"
	"slices"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
)

func runFT(t *testing.T, class FTClass, nodes, ppn, qps int, kind core.Kind, synthetic bool) FTResult {
	t.Helper()
	var res FTResult
	board := NewFTBoard(nodes * ppn)
	_, err := mpi.Run(mpi.Config{
		Nodes: nodes, ProcsPerNode: ppn, QPsPerPort: qps, Policy: kind,
	}, func(c *mpi.Comm) {
		r := RunFT(c, class, synthetic, board)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestFTClassSRuns(t *testing.T) {
	res := runFT(t, FTClassS, 2, 1, 4, core.EPC, false)
	if !res.Verified || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Checksums) != FTClassS.Iterations {
		t.Fatalf("%d checksums, want %d", len(res.Checksums), FTClassS.Iterations)
	}
	// The evolved field decays: checksum magnitudes stay bounded and
	// non-zero (the field is a positive random block in (0,1)^2).
	for i, chk := range res.Checksums {
		if cmplx.Abs(chk) == 0 {
			t.Errorf("iteration %d checksum is zero", i+1)
		}
	}
}

func TestFTVerifiesAgainstNPBReference(t *testing.T) {
	// Class S matches NPB 3.x's published checksums on every
	// decomposition the slab layout allows on two nodes.
	var res FTResult
	for _, ppn := range []int{1, 2, 4} {
		res = runFT(t, FTClassS, 2, ppn, 4, core.EPC, false)
		if !res.Verified {
			t.Errorf("%d ranks: class S checksums %v do not match NPB", 2*ppn, res.Checksums)
		}
	}
	// With no compute charge between transposes, a rank can pack its next
	// transpose before a peer has unpacked the last one; the board's two
	// slots must still hand every peer the right blocks.
	free := FTClassS
	free.PointCost = 0
	if r := runFT(t, free, 2, 2, 4, core.EPC, false); !r.Verified {
		t.Errorf("zero-cost class S checksums %v do not match NPB", r.Checksums)
	}
	// One checksum 1e-10 off in relative terms fails NPB's 1e-12 epsilon.
	for i := range res.Checksums {
		chks := slices.Clone(res.Checksums)
		chks[i] *= complex(1+1e-10, 0)
		if ftVerify(FTClassS, chks) {
			t.Errorf("checksum %d off by 1e-10 still verified", i+1)
		}
	}
	if ftVerify(FTClassS, res.Checksums[:5]) {
		t.Error("a missing iteration verified")
	}
	// A grid without a bundled table only needs finite checksums.
	custom := FTClass{'T', 32, 32, 32, 2, FTClassS.PointCost}
	if !ftVerify(custom, []complex128{1, 2i}) {
		t.Error("finite checksums of an unreferenced grid failed")
	}
	if ftVerify(custom, []complex128{1, cmplx.NaN()}) || ftVerify(custom, []complex128{cmplx.Inf(), 1}) {
		t.Error("a non-finite checksum verified")
	}
}

func TestFTChecksumsIndependentOfRankCount(t *testing.T) {
	// The physics must not depend on the decomposition: checksums with 2
	// and 4 ranks agree to fp tolerance.
	a := runFT(t, FTClassS, 2, 1, 2, core.EPC, false)
	b := runFT(t, FTClassS, 2, 2, 2, core.EPC, false)
	if len(a.Checksums) != len(b.Checksums) {
		t.Fatal("checksum counts differ")
	}
	for i := range a.Checksums {
		if cmplx.Abs(a.Checksums[i]-b.Checksums[i]) > 1e-9 {
			t.Errorf("iteration %d: checksum %v (np=2) vs %v (np=4)", i+1, a.Checksums[i], b.Checksums[i])
		}
	}
}

func TestFTChecksumsIndependentOfPolicy(t *testing.T) {
	a := runFT(t, FTClassS, 2, 1, 1, core.Original, false)
	b := runFT(t, FTClassS, 2, 1, 4, core.EvenStriping, false)
	for i := range a.Checksums {
		if cmplx.Abs(a.Checksums[i]-b.Checksums[i]) > 1e-9 {
			t.Errorf("iteration %d: checksums differ across policies", i+1)
		}
	}
}

func TestFTEPCFasterThanOriginal(t *testing.T) {
	orig := runFT(t, FTClassS, 2, 1, 1, core.Original, true)
	epc := runFT(t, FTClassS, 2, 1, 4, core.EPC, true)
	if epc.Elapsed >= orig.Elapsed {
		t.Errorf("EPC (%v) not faster than original (%v)", epc.Elapsed, orig.Elapsed)
	}
}

func TestFTSyntheticSameTraffic(t *testing.T) {
	// Synthetic and real runs produce the same virtual timeline.
	real := runFT(t, FTClassS, 2, 1, 4, core.EPC, false)
	synth := runFT(t, FTClassS, 2, 1, 4, core.EPC, true)
	if real.Elapsed != synth.Elapsed {
		t.Errorf("elapsed: real %v vs synthetic %v", real.Elapsed, synth.Elapsed)
	}
}

func TestFTValidFor(t *testing.T) {
	if !FTClassS.ValidFor(2) || !FTClassS.ValidFor(4) || !FTClassS.ValidFor(8) {
		t.Error("power-of-two rank counts must be valid for class S")
	}
	if FTClassS.ValidFor(3) || FTClassS.ValidFor(0) {
		t.Error("3 or 0 ranks must be invalid for a 64-plane slab")
	}
	// Class W has only 32 z-planes but 128 x-planes.
	if !FTClassW.ValidFor(8) || FTClassW.ValidFor(64) {
		t.Error("class W divisibility wrong")
	}
}

func TestFTClassByName(t *testing.T) {
	for _, n := range []byte{'S', 'W', 'A', 'B', 'C'} {
		c, err := FTClassByName(n)
		if err != nil || c.Name != n {
			t.Errorf("class %c: %+v err=%v", n, c, err)
		}
	}
	if _, err := FTClassByName('Z'); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestFreq(t *testing.T) {
	if freq(0, 8) != 0 || freq(3, 8) != 3 || freq(4, 8) != -4 || freq(7, 8) != -1 {
		t.Error("frequency mapping wrong")
	}
}

func TestFTPoints(t *testing.T) {
	if FTClassA.Points() != 256*256*128 {
		t.Errorf("class A points = %d", FTClassA.Points())
	}
}

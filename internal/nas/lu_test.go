package nas

import (
	"math"
	"math/rand"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
)

func runLU(t *testing.T, class LUClass, nodes, ppn, qps int, kind core.Kind) LUResult {
	t.Helper()
	var res LUResult
	_, err := mpi.Run(mpi.Config{Nodes: nodes, ProcsPerNode: ppn, QPsPerPort: qps, Policy: kind}, func(c *mpi.Comm) {
		r := RunLU(c, class)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestLUClassSRuns(t *testing.T) {
	res := runLU(t, LUClassS, 2, 1, 4, core.EPC)
	if !res.Verified || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestLUChecksumAcrossDecompositions(t *testing.T) {
	// The wavefront recurrence applies the same floating-point operations
	// per point whatever the pencil layout; only the final summation
	// reassociates, so checksums agree to fp tolerance across 2/4/8 ranks.
	a := runLU(t, LUClassS, 2, 1, 2, core.EPC)
	b := runLU(t, LUClassS, 2, 2, 2, core.EPC)
	c := runLU(t, LUClassS, 2, 4, 2, core.EPC)
	tol := 1e-12 * math.Abs(a.Checksum)
	if math.Abs(a.Checksum-b.Checksum) > tol || math.Abs(b.Checksum-c.Checksum) > tol {
		t.Errorf("checksums differ: %v / %v / %v", a.Checksum, b.Checksum, c.Checksum)
	}
}

func TestLUChecksumExactAcrossPolicies(t *testing.T) {
	a := runLU(t, LUClassS, 2, 2, 1, core.Original)
	b := runLU(t, LUClassS, 2, 2, 4, core.EvenStriping)
	if a.Checksum != b.Checksum {
		t.Errorf("checksums differ by policy: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestLUTrafficIsSmallMessages(t *testing.T) {
	// The wavefront sends boundary strips — all eager-sized.
	var stats [2]int64
	_, err := mpi.Run(mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC}, func(c *mpi.Comm) {
		RunLU(c, LUClassS)
		s := c.Endpoint().Stats()
		if c.Rank() == 0 {
			stats[0], stats[1] = s.EagerSent+s.ShmemSent, s.RendezvousSent
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] == 0 {
		t.Error("no eager traffic recorded")
	}
	if stats[1] != 0 {
		t.Errorf("wavefront produced %d rendezvous transfers; strips must be eager", stats[1])
	}
}

func TestLUEPCNotSlower(t *testing.T) {
	// Small blocking messages gain nothing from multi-rail (Fig. 3), and
	// must lose nothing either.
	orig := runLU(t, LUClassW, 2, 1, 1, core.Original)
	epc := runLU(t, LUClassW, 2, 1, 4, core.EPC)
	if d := (epc.Elapsed.Seconds() - orig.Elapsed.Seconds()) / orig.Elapsed.Seconds(); d > 0.02 {
		t.Errorf("LU: EPC %.4fs vs original %.4fs (+%.1f%%)", epc.Elapsed.Seconds(), orig.Elapsed.Seconds(), d*100)
	}
}

// TestLUPlanesMatchPointwise holds the row-pair plane sweeps to the plain
// point-by-point loop, with every edge test inline, bit for bit. It covers
// odd row counts (a single trailing row) and one-point rows, which the
// 2×2 oracle world never builds.
func TestLUPlanesMatchPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for _, lx := range []int{1, 2, 3, 8} {
		for _, ly := range []int{1, 2, 3, 5, 8} {
			pl, k := fill(lx*ly), fill(lx*ly)
			edgeW, edgeS := fill(ly), fill(lx)
			lower := append([]float64(nil), pl...)
			luLowerPlane(lower, k, edgeW, edgeS, lx)
			want := append([]float64(nil), pl...)
			for y := 0; y < ly; y++ {
				for x := 0; x < lx; x++ {
					w := edgeW[y]
					if x > 0 {
						w = want[y*lx+x-1]
					}
					s := edgeS[x]
					if y > 0 {
						s = want[(y-1)*lx+x]
					}
					want[y*lx+x] = 0.2*want[y*lx+x] + 0.25*(w+s+k[y*lx+x]) + 0.05
				}
			}
			for i := range want {
				if math.Float64bits(lower[i]) != math.Float64bits(want[i]) {
					t.Fatalf("lower %dx%d point %d: %v, pointwise %v", lx, ly, i, lower[i], want[i])
				}
			}
			upper := append([]float64(nil), pl...)
			luUpperPlane(upper, k, edgeW, edgeS, lx)
			want = append(want[:0], pl...)
			for y := ly - 1; y >= 0; y-- {
				for x := lx - 1; x >= 0; x-- {
					e := edgeW[y]
					if x < lx-1 {
						e = want[y*lx+x+1]
					}
					nn := edgeS[x]
					if y < ly-1 {
						nn = want[(y+1)*lx+x]
					}
					want[y*lx+x] = 0.2*want[y*lx+x] + 0.25*(e+nn+k[y*lx+x]) + 0.05
				}
			}
			for i := range want {
				if math.Float64bits(upper[i]) != math.Float64bits(want[i]) {
					t.Fatalf("upper %dx%d point %d: %v, pointwise %v", lx, ly, i, upper[i], want[i])
				}
			}
		}
	}
}

func TestLUGrid(t *testing.T) {
	cases := []struct{ p, px, py int }{{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {6, 2, 3}}
	for _, c := range cases {
		px, py := luGrid(c.p)
		if px != c.px || py != c.py {
			t.Errorf("luGrid(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
	}
}

func TestLUClassByName(t *testing.T) {
	for _, n := range []byte{'S', 'W', 'A', 'B'} {
		if c, err := LUClassByName(n); err != nil || c.Name != n {
			t.Errorf("class %c: %v", n, err)
		}
	}
	if _, err := LUClassByName('Q'); err == nil {
		t.Error("unknown class accepted")
	}
}

package nas

import (
	"fmt"
	"math"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
)

// oracleConfig is the benchmark's nas_app world: 2 nodes × 2 ranks, EPC
// over 4 QPs per port.
var oracleConfig = mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC}

func f64(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }

// worldLines records what the simulation as a whole did: its virtual end
// time and the number of events it fired.
func worldLines(rep *mpi.Report) []string {
	return []string{
		fmt.Sprintf("world.elapsed_ps %d", int64(rep.Elapsed)),
		fmt.Sprintf("world.events %d", rep.World.Eng.EventsFired()),
	}
}

// nasAppDigest runs the nas_app composition (LU A, FT S real, FT B
// synthetic, CG W, back to back in one world) and prints every result bit:
// each kernel's Elapsed, LU's checksum, FT's six checksums, CG's zeta and
// residual, then the world's end time and event count.
func nasAppDigest(t *testing.T) []string {
	t.Helper()
	var lines []string
	board := NewFTBoard(oracleConfig.Size())
	rep, err := mpi.Run(oracleConfig, func(c *mpi.Comm) {
		lu := RunLU(c, LUClassA)
		ftS := RunFT(c, FTClassS, false, board)
		ftB := RunFT(c, FTClassB, true, board)
		cg := RunCG(c, CGClassW)
		if c.Rank() != 0 {
			return
		}
		lines = append(lines,
			fmt.Sprintf("lu.elapsed_ps %d", int64(lu.Elapsed)),
			"lu.checksum "+f64(lu.Checksum),
			fmt.Sprintf("lu.verified %v", lu.Verified),
			fmt.Sprintf("ft_s.elapsed_ps %d", int64(ftS.Elapsed)))
		for i, chk := range ftS.Checksums {
			lines = append(lines, fmt.Sprintf("ft_s.checksum[%d] %s %s", i+1, f64(real(chk)), f64(imag(chk))))
		}
		lines = append(lines,
			fmt.Sprintf("ft_s.verified %v", ftS.Verified),
			fmt.Sprintf("ft_b.elapsed_ps %d", int64(ftB.Elapsed)),
			fmt.Sprintf("ft_b.verified %v", ftB.Verified),
			fmt.Sprintf("cg.elapsed_ps %d", int64(cg.Elapsed)),
			"cg.zeta "+f64(cg.Zeta),
			"cg.residual "+f64(cg.Residual),
			fmt.Sprintf("cg.verified %v", cg.Verified))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return append(lines, worldLines(rep)...)
}

// isDigest runs IS alone on the same world and prints its result bits.
func isDigest(t *testing.T, class ISClass, synthetic bool) []string {
	t.Helper()
	var lines []string
	board := NewISBoard(oracleConfig.Size())
	rep, err := mpi.Run(oracleConfig, func(c *mpi.Comm) {
		r := RunIS(c, class, synthetic, board)
		if c.Rank() == 0 {
			lines = append(lines,
				fmt.Sprintf("is.elapsed_ps %d", int64(r.Elapsed)),
				"is.mop_total "+f64(r.MopTotal),
				fmt.Sprintf("is.verified %v", r.Verified))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return append(lines, worldLines(rep)...)
}

// TestNASKernelsBitExact pins the NAS kernels' host-side numerics and
// their virtual timelines bit for bit. The values were recorded before the
// kernels' host loops were restructured (reused buffers, planned FFTs,
// skewed LU sweeps, the IS histogram-derived send counts); any change to a
// floating-point operation, its order, a Compute charge or a message shows
// up here. Never edit a value to make the test pass.
func TestNASKernelsBitExact(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T) []string
		want []string
	}{
		{"nas_app", nasAppDigest, []string{
			"lu.elapsed_ps 104188136500",
			"lu.checksum 0x3febc27c7b1b7d31",
			"lu.verified true",
			"ft_s.elapsed_ps 14488549222",
			"ft_s.checksum[1] 0x3f6154de9e5da889 0x3f5e4894d21e8340",
			"ft_s.checksum[2] 0x3f61551bbb5760fc 0x3f5e687ca0f87d68",
			"ft_s.checksum[3] 0x3f6154eb318eb4c8 0x3f5e8641d4f55f4a",
			"ft_s.checksum[4] 0x3f615456c13a7a76 0x3f5ea2097d735a42",
			"ft_s.checksum[5] 0x3f6153676e9f16c8 0x3f5ebbf61c86f04e",
			"ft_s.checksum[6] 0x3f6152259010e296 0x3f5ed427d4df00d0",
			"ft_s.verified true",
			"ft_b.elapsed_ps 6488240227995",
			"ft_b.verified true",
			"cg.elapsed_ps 98690193529",
			"cg.zeta 0x402dbfa2c1939190",
			"cg.residual 0x3c018c1f1ea97791",
			"cg.verified true",
			"world.elapsed_ps 6819578551893",
			"world.events 1375029",
		}},
		{"is_S_real", func(t *testing.T) []string { return isDigest(t, ISClassS, false) }, []string{
			"is.elapsed_ps 2190125003",
			"is.mop_total 0x4072b3beb7590c22",
			"is.verified true",
			"world.elapsed_ps 2266252364",
			"world.events 5668",
		}},
		{"is_S_synthetic", func(t *testing.T) []string { return isDigest(t, ISClassS, true) }, []string{
			"is.elapsed_ps 2218464357",
			"is.mop_total 0x40727695b823106a",
			"is.verified true",
			"world.elapsed_ps 2294591718",
			"world.events 5632",
		}},
		{"is_W_real", func(t *testing.T) []string { return isDigest(t, ISClassW, false) }, []string{
			"is.elapsed_ps 13749028157",
			"is.mop_total 0x4087d53caf579df1",
			"is.verified true",
			"world.elapsed_ps 14368214604",
			"world.events 10765",
		}},
		{"is_W_synthetic", func(t *testing.T) []string { return isDigest(t, ISClassW, true) }, []string{
			"is.elapsed_ps 13749028157",
			"is.mop_total 0x4087d53caf579df1",
			"is.verified true",
			"world.elapsed_ps 14368214604",
			"world.events 10765",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if len(got) != len(tc.want) {
				t.Errorf("%d lines, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if i >= len(tc.want) || got[i] != tc.want[i] {
					t.Errorf("got  %q", got[i])
					if i < len(tc.want) {
						t.Errorf("want %q", tc.want[i])
					}
				}
			}
		})
	}
}

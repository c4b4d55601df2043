package bench

import (
	"errors"
	"fmt"

	"ib12x/internal/mpi"
	"ib12x/internal/nas"
	"ib12x/internal/sim"
)

// NASResult is one NAS run as rank 0 reports it.
type NASResult struct {
	Name     string   // the kernel's report title, e.g. "LU (wavefront)"
	Elapsed  sim.Time // the benchmark's timed region, in virtual time
	Verified bool
	// Lines are the kernel's own report lines, e.g. "zeta     = 12.43":
	// IS rate, FT checksums, EP sums and counts, CG zeta and residual,
	// MG residuals, LU checksum. FT, EP and MG report theirs in real mode
	// only.
	Lines []string
}

// ErrLayout is wrapped by RunNAS's error for a class whose grid does not
// divide over the rank count; the message reads "class S grid does not
// divide over 3 ranks".
var ErrLayout = errors.New("grid does not divide over")

// RunNAS runs one NAS kernel, "is", "ft", "ep", "cg", "mg" or "lu", at a
// problem class ('S'..'C') on cfg's ranks. realMode moves real payloads
// (IS) or runs the real numerics (FT, EP, MG); CG and LU always run their
// real algorithms. An unknown kernel or class, or a class whose grid does
// not divide over the ranks, is an error before the simulation starts. A
// failed verification is not an error: the caller reads Verified.
// See DESIGN.md §5 and the nas docs.
func RunNAS(cfg mpi.Config, kernel string, class byte, realMode bool) (NASResult, error) {
	np := cfg.Size()
	valid := true
	var run func(c *mpi.Comm) NASResult
	switch kernel {
	case "is":
		cl, err := nas.ISClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		board := nas.NewISBoard(np)
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunIS(c, cl, !realMode, board)
			return NASResult{"IS", r.Elapsed, r.Verified,
				[]string{fmt.Sprintf("rate     = %.1f Mkeys/s", r.MopTotal)}}
		}
	case "ft":
		cl, err := nas.FTClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		valid = cl.ValidFor(np)
		board := nas.NewFTBoard(np)
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunFT(c, cl, !realMode, board)
			var lines []string
			for i, chk := range r.Checksums {
				lines = append(lines, fmt.Sprintf("checksum[%d] = %.10e %+.10ei", i+1, real(chk), imag(chk)))
			}
			return NASResult{"FT", r.Elapsed, r.Verified, lines}
		}
	case "ep":
		cl, err := nas.EPClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunEP(c, cl, !realMode)
			var lines []string
			if realMode {
				lines = []string{
					fmt.Sprintf("sums     = %.10e %.10e", r.SumX, r.SumY),
					fmt.Sprintf("counts   = %v", r.Counts),
				}
			}
			return NASResult{"EP", r.Elapsed, r.Verified, lines}
		}
	case "cg":
		cl, err := nas.CGClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunCG(c, cl)
			return NASResult{"CG", r.Elapsed, r.Verified, []string{
				fmt.Sprintf("zeta     = %.10f", r.Zeta),
				fmt.Sprintf("residual = %.3e", r.Residual),
			}}
		}
	case "mg":
		cl, err := nas.MGClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		valid = cl.ValidFor(np)
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunMG(c, cl, !realMode)
			var lines []string
			if realMode {
				lines = []string{fmt.Sprintf("residual = %.3e -> %.3e", r.Residual0, r.ResidualN)}
			}
			return NASResult{"MG", r.Elapsed, r.Verified, lines}
		}
	case "lu":
		cl, err := nas.LUClassByName(class)
		if err != nil {
			return NASResult{}, err
		}
		valid = cl.ValidFor(np)
		run = func(c *mpi.Comm) NASResult {
			r := nas.RunLU(c, cl)
			return NASResult{"LU (wavefront)", r.Elapsed, r.Verified,
				[]string{fmt.Sprintf("checksum = %.10e", r.Checksum)}}
		}
	default:
		return NASResult{}, fmt.Errorf("unknown NAS kernel %q (is | ft | ep | cg | mg | lu)", kernel)
	}
	if !valid {
		return NASResult{}, fmt.Errorf("class %c %w %d ranks", class, ErrLayout, np)
	}
	var res NASResult
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if r := run(c); c.Rank() == 0 {
			res = r
		}
	})
	return res, err
}

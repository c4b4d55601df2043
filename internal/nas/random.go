// Package nas implements NAS Parallel Benchmark kernels over the simulated
// MPI: the two the paper evaluates (§4.4), IS (Integer Sort) and FT (3-D
// Fast Fourier Transform), plus EP, CG, MG and an LU-style wavefront for
// the "no degradation on other applications" check. Each runs its real
// algorithm (or, where the field would not fit, a synthetic twin with the
// same traffic) while charging local computation to the virtual clock
// through a calibrated Power6 model.
//
// The kernels follow the NPB specifications: the 5^13 linear-congruential
// generator with per-rank seed jumping, IS's bucket sort with Allreduce +
// Alltoallv redistribution, and FT's transpose-based 3-D FFT with Alltoall.
// FT class S bundles NPB 3.x's published checksums and verifies against
// them at NPB's 1e-12 relative epsilon; the other kernels and classes are
// checked by invariants (global sortedness and permutation preservation for
// IS, finite checksums for FT classes without a table, convergence for CG).
//
// How fast the host does a kernel's arithmetic never reaches virtual time:
// every Compute charge is an operation count times a calibrated cost.
package nas

// NPB linear congruential generator: x_{k+1} = a·x_k (mod 2^46) with
// a = 5^13. Values are uniform in (0, 1) as x/2^46.
const (
	lcgA    uint64 = 1220703125 // 5^13
	lcgMask uint64 = 1<<46 - 1
)

// Random is the NPB pseudorandom stream.
type Random struct {
	x uint64
}

// NewRandom creates a stream with the given seed (only the low 46 bits are
// used; NPB's standard seed is 314159265).
func NewRandom(seed uint64) *Random {
	return &Random{x: seed & lcgMask}
}

// Next advances the stream and returns a uniform double in (0, 1).
func (r *Random) Next() float64 {
	// The modulus is a power of two, so the low 46 bits of the 64-bit
	// product are exact.
	r.x = (lcgA * r.x) & lcgMask
	return float64(r.x) / float64(1<<46)
}

// Skip advances the stream by n steps in O(log n) using the multiplier
// a^n mod 2^46 (NPB's find_my_seed). It returns the receiver.
func (r *Random) Skip(n uint64) *Random {
	r.x = (mulpow(lcgA, n) * r.x) & lcgMask
	return r
}

// mulpow computes a^n mod 2^46 by binary exponentiation.
func mulpow(a, n uint64) uint64 {
	result := uint64(1)
	base := a & lcgMask
	for n > 0 {
		if n&1 == 1 {
			result = (result * base) & lcgMask
		}
		base = (base * base) & lcgMask
		n >>= 1
	}
	return result
}

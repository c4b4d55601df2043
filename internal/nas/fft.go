package nas

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// fftPlan holds everything about a radix-2 transform that depends only on
// its length: the bit-reversal swaps and, per butterfly level, the twiddle
// factors. Level half (1, 2, 4, … n/2) keeps its half twiddles at
// fwd[half-1 : 2*half-1]; they are generated by the very recurrence the
// butterflies used to run inline (w = 1, then w *= wstep per step), so a
// planned transform performs the same floating-point operations on the
// same values as the unplanned one. inv holds the inverse-sign twiddles.
// A plan is never written after it is built.
type fftPlan struct {
	swaps    []int32 // pairs (i, j), i < j, in the order the scan finds them
	fwd, inv []complex128
}

// fftPlans caches one plan per power-of-two length, indexed by log2 n. It
// is the only state the NAS kernels share across simulations, which the
// harness runs in parallel; plans are immutable once published, and two
// goroutines racing to build the same length build identical plans.
var fftPlans [bits.UintSize]atomic.Pointer[fftPlan]

// planFor returns the plan for length n (a power of two, at least 2).
func planFor(n int) *fftPlan {
	slot := &fftPlans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	slot.CompareAndSwap(nil, newFFTPlan(n))
	return slot.Load()
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{fwd: twiddles(n, -1), inv: twiddles(n, +1)}
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	return p
}

// twiddles generates every level's twiddle factors for sign.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := 0; k < size>>1; k++ {
			tw = append(tw, w)
			w *= wstep
		}
	}
	return tw
}

// fft computes an in-place radix-2 decimation-in-time FFT of x, whose
// length must be a power of two. sign = -1 gives the forward transform,
// sign = +1 the inverse (unnormalised; callers divide by n).
func fft(x []complex128, sign float64) {
	n := len(x)
	if n&(n-1) != 0 {
		panic("nas: fft length must be a power of two")
	}
	if n < 2 {
		return
	}
	p := planFor(n)
	// Bit-reversal permutation.
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := p.fwd
	if sign > 0 {
		tw = p.inv
	}
	// Butterflies. The first two levels act within each group of four
	// points, so they run fused in one pass: the same multiplies and adds
	// on the same values, without two passes of one- and two-step loops.
	half := 1
	if n >= 4 {
		w1, w20, w21 := tw[0], tw[1], tw[2]
		for s := 0; s+4 <= n; s += 4 {
			g := x[s : s+4]
			a0, b0 := g[0], g[1]*w1
			a1, b1 := g[2], g[3]*w1
			y0, y1, y2, y3 := a0+b0, a0-b0, a1+b1, a1-b1
			t0, t1 := y2*w20, y3*w21
			g[0], g[2] = y0+t0, y0-t0
			g[1], g[3] = y1+t1, y1-t1
		}
		half = 4
	}
	for ; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := x[start : start+half][:len(w)]
			hi := x[start+half : start+2*half][:len(w)]
			for k, wk := range w {
				a := lo[k]
				b := hi[k] * wk
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// Forward computes the forward FFT in place.
func Forward(x []complex128) { fft(x, -1) }

// Inverse computes the normalised inverse FFT in place.
func Inverse(x []complex128) {
	fft(x, +1)
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
}

// dft is the O(n²) reference transform used by tests.
func dft(x []complex128, sign float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k*t) / float64(n)
			sum += x[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

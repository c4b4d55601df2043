package nas

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randomField(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randomField(n, int64(n))
		want := dft(x, -1)
		got := append([]complex128(nil), x...)
		Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT vs DFT max err %g", n, e)
		}
	}
}

func TestInverseRecoversInput(t *testing.T) {
	for _, n := range []int{2, 8, 128, 1024} {
		x := randomField(n, 42)
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Errorf("n=%d: roundtrip max err %g", n, e)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seedA, seedB int16) bool {
		const n = 64
		a := randomField(n, int64(seedA))
		b := randomField(n, int64(seedB))
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		Forward(a)
		Forward(b)
		Forward(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	const n = 512
	x := randomField(n, 7)
	var timeE float64
	for _, v := range x {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-9*timeE {
		t.Errorf("Parseval violated: time %g vs freq/n %g", timeE, freqE/float64(n))
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	const n = 32
	x := make([]complex128, n)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

// fftReference is the transform without a plan: the bit-reversal scan and
// the twiddle recurrence run inline on every call. The planned fft must
// match it bit for bit.
func fftReference(x []complex128, sign float64) {
	n := len(x)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
}

// FuzzFFT checks the planned fft against fftReference bit for bit, for
// every power-of-two length up to 4096 and both signs. raw overwrites the
// leading real and imaginary parts with arbitrary float64 bit patterns, so
// signed zeros, subnormals, infinities and NaNs get through too.
func FuzzFFT(f *testing.F) {
	f.Add(uint8(0), int64(1), false, []byte{})
	f.Add(uint8(6), int64(7), true, []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(12), int64(42), false, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, logN uint8, seed int64, inverse bool, raw []byte) {
		n := 1 << (logN % 13)
		x := randomField(n, seed)
		for i := 0; 8*i+8 <= len(raw) && i < 2*n; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if i%2 == 0 {
				x[i/2] = complex(v, imag(x[i/2]))
			} else {
				x[i/2] = complex(real(x[i/2]), v)
			}
		}
		sign := -1.0
		if inverse {
			sign = +1
		}
		want := append([]complex128(nil), x...)
		fftReference(want, sign)
		fft(x, sign)
		if i := firstBitDiff(x, want); i >= 0 {
			t.Fatalf("n=%d sign=%v bin %d: planned %v, reference %v", n, sign, i, x[i], want[i])
		}
	})
}

// firstBitDiff returns the first index where a and b differ in any bit,
// or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestFFTPlansConcurrent builds every plan from several goroutines at
// once, as simulations running in parallel under the harness do, and
// checks each transform against the reference. Under -race it also checks
// that publishing a plan is synchronised.
func TestFFTPlansConcurrent(t *testing.T) {
	for i := range fftPlans {
		fftPlans[i].Store(nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for n := 2; n <= 4096; n <<= 1 {
				x := randomField(n, seed)
				want := append([]complex128(nil), x...)
				fftReference(want, +1)
				fft(x, +1)
				if i := firstBitDiff(x, want); i >= 0 {
					t.Errorf("n=%d bin %d: planned %v, reference %v", n, i, x[i], want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length 6 must panic")
		}
	}()
	Forward(make([]complex128, 6))
}

package nas

import (
	"fmt"
	"math"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// MGClass describes one NPB Multigrid problem class.
//
// Substitution note (DESIGN.md §2): NPB MG runs a four-level V-cycle with
// the 27-point operator set on a grid seeded with ±1 spikes. We keep the
// structure — V-cycles over a power-of-two grid hierarchy under a 1-D
// z-slab decomposition, with one halo-plane exchange per smoothing or
// residual sweep per level and a residual-norm Allreduce per iteration —
// but use the 7-point Poisson operator with damped-Jacobi smoothing, whose
// convergence is easier to verify without NPB's reference numbers.
type MGClass struct {
	Name       byte
	N          int // grid edge (nx = ny = nz = N, power of two)
	Iterations int
	PointCost  sim.Time // calibrated cost per grid point per sweep
}

// NPB MG problem classes (S and A/B edges per the NPB spec; W reduced).
var (
	MGClassS = MGClass{'S', 32, 4, 6 * sim.Nanosecond}
	MGClassW = MGClass{'W', 64, 4, 6 * sim.Nanosecond}
	MGClassA = MGClass{'A', 256, 4, 7 * sim.Nanosecond}
	MGClassB = MGClass{'B', 256, 20, 7 * sim.Nanosecond}
)

// MGClassByName resolves a class letter.
func MGClassByName(name byte) (MGClass, error) {
	switch name {
	case 'S':
		return MGClassS, nil
	case 'W':
		return MGClassW, nil
	case 'A':
		return MGClassA, nil
	case 'B':
		return MGClassB, nil
	}
	return MGClass{}, fmt.Errorf("nas: unknown MG class %q", string(name))
}

// ValidFor reports whether the z-slab decomposition supports np ranks:
// every rank holds the same number of planes of the finest grid. The
// hierarchy stops halving at p planes, so coarse levels never run short.
func (c MGClass) ValidFor(np int) bool { return np > 0 && c.N%np == 0 }

// MGResult reports a finished MG run.
type MGResult struct {
	Class     byte
	NP        int
	Elapsed   sim.Time
	Residual0 float64 // initial residual norm
	ResidualN float64 // final residual norm
	Verified  bool
}

// mgLevel is one grid of the hierarchy, z-slab decomposed: each rank holds
// lz planes of ny×nx points plus two halo planes.
type mgLevel struct {
	n  int // global edge
	lz int // local planes
	u  []float64
	v  []float64 // right-hand side at this level
	r  []float64 // residual / scratch
}

func (l *mgLevel) plane() int          { return l.n * l.n }
func (l *mgLevel) idx(z, y, x int) int { return ((z+1)*l.n+y)*l.n + x } // +1: halo

// RunMG executes the multigrid kernel: Iterations V-cycles on the class
// grid. In synthetic mode the sweeps are charged to the clock and halo
// planes travel as synthetic messages; no field is allocated.
func RunMG(c *mpi.Comm, class MGClass, synthetic bool) MGResult {
	p := c.Size()
	rank := c.Rank()
	if class.N%p != 0 {
		panic(fmt.Sprintf("nas: MG grid %d not divisible by %d ranks", class.N, p))
	}
	res := MGResult{Class: class.Name, NP: p}

	// Build the level sizes: halve until 8 planes or p planes, whichever
	// is larger.
	var sizes []int
	for n := class.N; n >= 8 && n >= p; n /= 2 {
		sizes = append(sizes, n)
	}

	if synthetic {
		c.Barrier()
		t0 := c.Time()
		for it := 0; it < class.Iterations; it++ {
			for li, n := range sizes {
				lz := n / p
				pts := lz * n * n
				sweeps := 3 // smooth ×2 + residual/transfer
				if li == len(sizes)-1 {
					sweeps = 5 // extra smoothing at the bottom
				}
				for s := 0; s < sweeps; s++ {
					c.Compute(nops(pts) * class.PointCost)
					haloExchange(c, nil, nil, n, rank, p)
				}
			}
			sum := []float64{0}
			c.AllreduceFloat64(sum, mpi.Sum)
		}
		el := []int64{int64(c.Time() - t0)}
		c.AllreduceInt64(el, mpi.Max)
		res.Elapsed = sim.Time(el[0])
		res.Verified = true
		return res
	}

	// ---- real mode ----
	levels := make([]*mgLevel, len(sizes))
	for i, n := range sizes {
		lz := n / p
		levels[i] = &mgLevel{
			n: n, lz: lz,
			u: make([]float64, (lz+2)*n*n),
			v: make([]float64, (lz+2)*n*n),
			r: make([]float64, (lz+2)*n*n),
		}
	}
	// Right-hand side: NPB-style ± spikes at LCG-random interior points.
	fine := levels[0]
	rng := NewRandom(314159265)
	for s := 0; s < 20; s++ {
		gx := 1 + int(rng.Next()*float64(fine.n-2))
		gy := 1 + int(rng.Next()*float64(fine.n-2))
		gz := 1 + int(rng.Next()*float64(fine.n-2))
		val := 1.0
		if s%2 == 1 {
			val = -1
		}
		if zl := gz - rank*fine.lz; zl >= 0 && zl < fine.lz {
			fine.v[fine.idx(zl, gy, gx)] = val
		}
	}

	c.Barrier()
	t0 := c.Time()

	res.Residual0 = residualNorm(c, class, fine, rank, p)
	for it := 0; it < class.Iterations; it++ {
		vcycle(c, class, levels, 0, rank, p)
	}
	res.ResidualN = residualNorm(c, class, fine, rank, p)

	el := []int64{int64(c.Time() - t0)}
	c.AllreduceInt64(el, mpi.Max)
	res.Elapsed = sim.Time(el[0])
	res.Verified = res.ResidualN < res.Residual0 && !math.IsNaN(res.ResidualN)
	return res
}

// haloExchange swaps boundary planes with the z neighbours (Dirichlet
// boundaries: edge ranks skip the missing side). top/bottom may be nil for
// synthetic traffic of one plane each.
func haloExchange(c *mpi.Comm, lo, hi []float64, n, rank, p int) {
	bytes := n * n * 8
	var reqs []*mpi.Request
	if rank > 0 {
		reqs = append(reqs, c.IrecvN(rank-1, 71, f64bytes(lo), bytes))
	}
	if rank < p-1 {
		reqs = append(reqs, c.IrecvN(rank+1, 72, f64bytes(hi), bytes))
	}
	if rank > 0 {
		reqs = append(reqs, c.IsendN(rank-1, 72, f64bytes(lo), bytes))
	}
	if rank < p-1 {
		reqs = append(reqs, c.IsendN(rank+1, 71, f64bytes(hi), bytes))
	}
	c.Waitall(reqs)
}

// f64bytes is a placeholder for synthetic halo traffic: the real planes are
// exchanged through the payload when non-nil. To keep the hot path free of
// per-element marshalling, real-mode halo planes are serialized here.
func f64bytes(v []float64) []byte {
	if v == nil {
		return nil
	}
	b := make([]byte, 8*len(v))
	for i, x := range v {
		putU64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// realHalo exchanges actual boundary planes of u for one level.
func realHalo(c *mpi.Comm, l *mgLevel, rank, p int) {
	pl := l.plane()
	// Send the first and last owned planes; receive into the halos.
	loOut := l.u[1*pl : 2*pl]           // first owned plane
	hiOut := l.u[l.lz*pl : (l.lz+1)*pl] // last owned plane
	bytes := pl * 8
	var reqs []*mpi.Request
	loIn := make([]byte, bytes)
	hiIn := make([]byte, bytes)
	if rank > 0 {
		reqs = append(reqs, c.IrecvN(rank-1, 71, loIn, bytes))
	}
	if rank < p-1 {
		reqs = append(reqs, c.IrecvN(rank+1, 72, hiIn, bytes))
	}
	if rank > 0 {
		reqs = append(reqs, c.IsendN(rank-1, 72, f64bytes(loOut), bytes))
	}
	if rank < p-1 {
		reqs = append(reqs, c.IsendN(rank+1, 71, f64bytes(hiOut), bytes))
	}
	c.Waitall(reqs)
	if rank > 0 {
		for i := 0; i < pl; i++ {
			l.u[i] = math.Float64frombits(getU64(loIn[8*i:]))
		}
	}
	if rank < p-1 {
		base := (l.lz + 1) * pl
		for i := 0; i < pl; i++ {
			l.u[base+i] = math.Float64frombits(getU64(hiIn[8*i:]))
		}
	}
}

// smooth runs one damped-Jacobi sweep: u += ω D⁻¹ (v − A u).
func smooth(c *mpi.Comm, class MGClass, l *mgLevel, rank, p int) {
	realHalo(c, l, rank, p)
	n := l.n
	h2 := 1.0
	const omega = 0.8
	out := l.r
	for z := 0; z < l.lz; z++ {
		gz := rank*l.lz + z
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := l.idx(z, y, x)
				if gz == 0 || gz == n-1 || y == 0 || y == n-1 || x == 0 || x == n-1 {
					out[i] = 0 // Dirichlet boundary
					continue
				}
				lap := l.u[i-1] + l.u[i+1] +
					l.u[i-n] + l.u[i+n] +
					l.u[i-n*n] + l.u[i+n*n] - 6*l.u[i]
				r := l.v[i] - (-lap / h2)
				out[i] = l.u[i] + omega*r*h2/6
			}
		}
	}
	copy(l.u[l.plane():(l.lz+1)*l.plane()], out[l.plane():(l.lz+1)*l.plane()])
	c.Compute(nops(l.lz*n*n) * class.PointCost)
}

// residual computes r = v − A u into l.r (interior only).
func residual(c *mpi.Comm, class MGClass, l *mgLevel, rank, p int) {
	realHalo(c, l, rank, p)
	n := l.n
	for z := 0; z < l.lz; z++ {
		gz := rank*l.lz + z
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := l.idx(z, y, x)
				if gz == 0 || gz == n-1 || y == 0 || y == n-1 || x == 0 || x == n-1 {
					l.r[i] = 0
					continue
				}
				lap := l.u[i-1] + l.u[i+1] + l.u[i-n] + l.u[i+n] +
					l.u[i-n*n] + l.u[i+n*n] - 6*l.u[i]
				l.r[i] = l.v[i] + lap
			}
		}
	}
	c.Compute(nops(l.lz*n*n) * class.PointCost)
}

// residualNorm computes the global L2 norm of v − A u on a level.
func residualNorm(c *mpi.Comm, class MGClass, l *mgLevel, rank, p int) float64 {
	residual(c, class, l, rank, p)
	var sum float64
	for z := 0; z < l.lz; z++ {
		base := l.idx(z, 0, 0)
		for i := 0; i < l.n*l.n; i++ {
			sum += l.r[base+i] * l.r[base+i]
		}
	}
	s := []float64{sum}
	c.AllreduceFloat64(s, mpi.Sum)
	return math.Sqrt(s[0])
}

// vcycle runs one V-cycle starting at level li.
func vcycle(c *mpi.Comm, class MGClass, levels []*mgLevel, li, rank, p int) {
	l := levels[li]
	if li == len(levels)-1 {
		for s := 0; s < 5; s++ {
			smooth(c, class, l, rank, p)
		}
		return
	}
	smooth(c, class, l, rank, p)
	residual(c, class, l, rank, p)

	// Restrict r to the coarser level's v (straight injection of every
	// second point; the halo is not needed for injection).
	coarse := levels[li+1]
	cn := coarse.n
	zFactor := l.lz / coarse.lz // 2 when both levels split evenly
	for z := 0; z < coarse.lz; z++ {
		for y := 0; y < cn; y++ {
			for x := 0; x < cn; x++ {
				coarse.v[coarse.idx(z, y, x)] = l.r[l.idx(z*zFactor, 2*y, 2*x)]
			}
		}
	}
	for i := range coarse.u {
		coarse.u[i] = 0
	}
	c.Compute(nops(coarse.lz*cn*cn) * class.PointCost)

	vcycle(c, class, levels, li+1, rank, p)

	// Prolongate the correction (piecewise-constant) and correct.
	n := l.n
	for z := 0; z < l.lz; z++ {
		cz := z / zFactor
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				l.u[l.idx(z, y, x)] += coarse.u[coarse.idx(cz, y/2, x/2)]
			}
		}
	}
	c.Compute(nops(l.lz*n*n) * class.PointCost)

	smooth(c, class, l, rank, p)
}

package nas

import (
	"fmt"
	"math"
	"slices"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// CGClass describes one NPB Conjugate Gradient problem class.
//
// Substitution note (DESIGN.md §2): NPB's makea builds the sparse matrix
// from random outer products; we build a random symmetric diagonally
// dominant matrix with the same order and nonzeros-per-row from the NPB
// LCG. The solver, its communication pattern (an Allgather of the search
// vector per matvec plus Allreduce dot products under a 1-D row
// decomposition) and the convergence behaviour are preserved; the official
// zeta reference values are not applicable.
type CGClass struct {
	Name    byte
	N       int // matrix order
	Nonzer  int // off-diagonal nonzeros per row
	Niter   int // outer iterations
	Shift   float64
	NnzCost sim.Time // calibrated cost per nonzero per matvec
}

// NPB CG problem classes (order/nonzer/niter/shift per the NPB spec).
var (
	CGClassS = CGClass{'S', 1400, 7, 15, 10, 9 * sim.Nanosecond}
	CGClassW = CGClass{'W', 7000, 8, 15, 12, 9 * sim.Nanosecond}
	CGClassA = CGClass{'A', 14000, 11, 15, 20, 9 * sim.Nanosecond}
	CGClassB = CGClass{'B', 75000, 13, 75, 60, 10 * sim.Nanosecond}
)

// CGClassByName resolves a class letter.
func CGClassByName(name byte) (CGClass, error) {
	switch name {
	case 'S':
		return CGClassS, nil
	case 'W':
		return CGClassW, nil
	case 'A':
		return CGClassA, nil
	case 'B':
		return CGClassB, nil
	}
	return CGClass{}, fmt.Errorf("nas: unknown CG class %q", string(name))
}

// CGResult reports a finished CG run.
type CGResult struct {
	Class    byte
	NP       int
	Elapsed  sim.Time
	Zeta     float64
	Residual float64
	Verified bool
}

// sparseRows is a rank's block of the matrix in CSR form: row i's
// entries are cols[rowPtr[i]:rowPtr[i+1]] and the matching vals, in the
// order the generator produced them (the order each row's matvec sum
// runs in).
type sparseRows struct {
	rowStart int // first global row of the block
	rowPtr   []int
	cols     []int32
	vals     []float64
}

// buildMatrix constructs the rank's row block of a symmetric, diagonally
// dominant sparse matrix, deterministically from the NPB LCG. Off-diagonal
// entries are mirrored inside the row block generation by construction:
// entry (i, j) uses a value derived from min/max of the pair so A == Aᵀ.
func buildMatrix(class CGClass, rank, p int) *sparseRows {
	n := class.N
	rows := n / p
	start := rank * rows
	if rank == p-1 {
		rows = n - start
	}
	// Random strides shared by all rows: row i connects to i±s_k, so the
	// pattern is trivially symmetric (a randomly banded ring).
	nstr := class.Nonzer / 2
	strides := make([]int, nstr)
	for k := range strides {
		strides[k] = int(mulpow(lcgA, uint64(3*k+5))%uint64(n-1)) + 1
	}
	perRow := 2*nstr + 1
	m := &sparseRows{
		rowStart: start,
		rowPtr:   make([]int, 1, rows+1),
		cols:     make([]int32, 0, rows*perRow),
		vals:     make([]float64, 0, rows*perRow),
	}
	for i := 0; i < rows; i++ {
		gi := start + i
		first := len(m.cols)
		var offDiagSum float64
		add := func(j int) {
			if j == gi || slices.Contains(m.cols[first:], int32(j)) {
				return
			}
			v := symVal(gi, j, n)
			m.cols = append(m.cols, int32(j))
			m.vals = append(m.vals, v)
			offDiagSum += math.Abs(v)
		}
		for _, str := range strides {
			add((gi + str) % n)
			add((gi - str + n) % n)
		}
		// Diagonal dominance makes A SPD.
		m.cols = append(m.cols, int32(gi))
		m.vals = append(m.vals, offDiagSum+1+float64(class.Shift)/10)
		m.rowPtr = append(m.rowPtr, len(m.cols))
	}
	return m
}

// symVal yields the value of entry (i, j), symmetric by construction.
func symVal(i, j, n int) float64 {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	x := (uint64(lo)*2654435761 + uint64(hi)*40503) & lcgMask
	return -0.5 + float64((lcgA*x)&lcgMask)/float64(1<<46) // in (-0.5, 0.5)
}

// RunCG executes the NPB CG kernel: Niter outer iterations, each solving
// A·z = x with 25 conjugate-gradient steps and updating the shifted
// eigenvalue estimate zeta. Communication per CG step: one Allgather of
// the search vector (the 1-D matvec exchange) and Allreduce dot products.
func RunCG(c *mpi.Comm, class CGClass) CGResult {
	p := c.Size()
	rank := c.Rank()
	n := class.N
	rows := n / p
	start := rank * rows
	if rank == p-1 {
		rows = n - start
	}
	blockBytes := (n/p + p) * 8 // allgather block, padded for the tail rank

	A := buildMatrix(class, rank, p)
	nnz := len(A.cols)
	ex := &cgExchange{c: c, scalar: make([]float64, 1),
		send: make([]byte, blockBytes), recv: make([]byte, blockBytes*p), blockBytes: blockBytes}

	// Working vectors: x global estimate (replicated via allgather), local
	// blocks for z, r, q; p is the replicated search direction.
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	pv := make([]float64, n)
	zLoc := make([]float64, rows)
	rLoc := make([]float64, rows)
	qLoc := make([]float64, rows)

	res := CGResult{Class: class.Name, NP: p}
	c.Barrier()
	t0 := c.Time()

	var zeta float64
	for outer := 1; outer <= class.Niter; outer++ {
		// ---- CG solve: A z = x ----
		for i := 0; i < rows; i++ {
			zLoc[i] = 0
			rLoc[i] = x[start+i]
		}
		copy(pv, x)
		rho := ex.dot(rLoc, rLoc)
		for it := 0; it < 25; it++ {
			// q = A p (p replicated; matvec local; then dot products).
			matvec(A, pv, qLoc)
			c.Compute(sim.Time(nnz) * class.NnzCost)
			var dLoc float64
			for i := 0; i < rows; i++ {
				dLoc += pv[start+i] * qLoc[i]
			}
			d := ex.reduce(dLoc)
			alpha := rho / d
			for i := 0; i < rows; i++ {
				zLoc[i] += alpha * pv[start+i]
				rLoc[i] -= alpha * qLoc[i]
			}
			rho0 := rho
			rho = ex.dot(rLoc, rLoc)
			beta := rho / rho0
			// p = r + beta p, then re-replicate p via allgather.
			for i := 0; i < rows; i++ {
				qLoc[i] = rLoc[i] + beta*pv[start+i] // reuse qLoc as scratch
			}
			ex.allgatherVec(qLoc, pv, n)
			c.Compute(sim.Time(rows) * class.NnzCost)
		}
		// ||r|| for reporting.
		res.Residual = math.Sqrt(ex.dot(rLoc, rLoc))

		// zeta = shift + 1 / (x·z); x = z/||z||.
		var xzLoc, zzLoc float64
		for i := 0; i < rows; i++ {
			xzLoc += x[start+i] * zLoc[i]
			zzLoc += zLoc[i] * zLoc[i]
		}
		sums := []float64{xzLoc, zzLoc}
		c.AllreduceFloat64(sums, mpi.Sum)
		zeta = class.Shift + 1/sums[0]
		norm := 1 / math.Sqrt(sums[1])
		for i := 0; i < rows; i++ {
			qLoc[i] = zLoc[i] * norm
		}
		ex.allgatherVec(qLoc, x, n)
	}

	el := []int64{int64(c.Time() - t0)}
	c.AllreduceInt64(el, mpi.Max)
	res.Elapsed = sim.Time(el[0])
	res.Zeta = zeta
	// Verification: zeta finite and near the shift (the dominant
	// eigenvalue of a strongly diagonally dominant normalized system keeps
	// 1/(x·z) small), and the CG residual actually converged.
	res.Verified = !math.IsNaN(zeta) && math.Abs(zeta-class.Shift) < class.Shift &&
		res.Residual < 1e-6*float64(n)
	return res
}

// matvec computes q = A p for the local row block.
func matvec(A *sparseRows, p []float64, q []float64) {
	cols, vals := A.cols, A.vals
	lo := 0
	for i, hi := range A.rowPtr[1:] {
		var sum float64
		for k := lo; k < hi; k++ {
			sum += vals[k] * p[cols[k]]
		}
		q[i] = sum
		lo = hi
	}
}

// cgExchange is one CG run's communication scratch, allocated once.
type cgExchange struct {
	c          *mpi.Comm
	scalar     []float64 // the one-element Allreduce buffer
	send, recv []byte    // allgatherVec's padded blocks
	blockBytes int
}

// dot computes the global dot product of two distributed vectors.
func (e *cgExchange) dot(a, b []float64) float64 {
	var local float64
	for i := range a {
		local += a[i] * b[i]
	}
	return e.reduce(local)
}

// reduce sums one scalar across all ranks.
func (e *cgExchange) reduce(v float64) float64 {
	e.scalar[0] = v
	e.c.AllreduceFloat64(e.scalar, mpi.Sum)
	return e.scalar[0]
}

// allgatherVec re-replicates a block-distributed vector of length n.
// Blocks are padded to a fixed size so the collective is regular; the tail
// rank's extra rows ride inside its padding and the unpack loop trims per
// rank.
func (e *cgExchange) allgatherVec(local []float64, global []float64, n int) {
	p := e.c.Size()
	base := n / p
	for i, v := range local {
		putU64(e.send[8*i:], math.Float64bits(v))
	}
	e.c.Allgather(e.send, e.blockBytes, e.recv)
	for r := 0; r < p; r++ {
		rRows := base
		rStart := r * base
		if r == p-1 {
			rRows = n - rStart
		}
		dst := global[rStart : rStart+rRows]
		src := e.recv[r*e.blockBytes:][:8*len(dst)]
		for i := range dst {
			dst[i] = math.Float64frombits(getU64(src[8*i:]))
		}
	}
}

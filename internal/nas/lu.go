package nas

import (
	"fmt"
	"math"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// LUClass describes one LU-style wavefront problem.
//
// Substitution note (DESIGN.md §2): NPB LU runs SSOR over the Navier-Stokes
// operators. We keep what matters to the network — the 2-D pencil
// decomposition and the pipelined wavefront: every k-plane, a rank waits
// for its west and south boundary strips, relaxes its block, and forwards
// east and north, so the fabric sees long trains of small blocking
// messages (the opposite regime from FT's huge transposes) — but relax a
// simple triangular recurrence whose checksum is decomposition-invariant.
type LUClass struct {
	Name       byte
	N          int // grid edge
	Iterations int // SSOR iterations (each = lower + upper sweep)
	PointCost  sim.Time
}

// LU-style problem classes (edges per NPB; iteration counts reduced for
// the S/W classes as NPB's 50+ add nothing to the communication shape).
var (
	LUClassS = LUClass{'S', 16, 10, 12 * sim.Nanosecond}
	LUClassW = LUClass{'W', 32, 20, 12 * sim.Nanosecond}
	LUClassA = LUClass{'A', 64, 50, 13 * sim.Nanosecond}
	LUClassB = LUClass{'B', 102, 50, 13 * sim.Nanosecond}
)

// LUClassByName resolves a class letter.
func LUClassByName(name byte) (LUClass, error) {
	switch name {
	case 'S':
		return LUClassS, nil
	case 'W':
		return LUClassW, nil
	case 'A':
		return LUClassA, nil
	case 'B':
		return LUClassB, nil
	}
	return LUClass{}, fmt.Errorf("nas: unknown LU class %q", string(name))
}

// LUResult reports a finished run.
type LUResult struct {
	Class    byte
	NP       int
	Elapsed  sim.Time
	Checksum float64
	Verified bool
}

// ValidFor reports whether the grid divides over luGrid's np-rank
// processor grid in both x and y.
func (c LUClass) ValidFor(np int) bool {
	if np < 1 {
		return false
	}
	px, py := luGrid(np)
	return c.N%px == 0 && c.N%py == 0
}

// luGrid picks the 2-D processor grid: the most square px×py = p.
func luGrid(p int) (px, py int) {
	px = 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			px = f
		}
	}
	return px, p / px
}

// RunLU executes the wavefront kernel. The grid must divide over the
// processor grid. Real math always runs (the fields are small); the
// PointCost charge models the Power6 relaxation time.
func RunLU(c *mpi.Comm, class LUClass) LUResult {
	p := c.Size()
	rank := c.Rank()
	px, py := luGrid(p)
	n := class.N
	if n%px != 0 || n%py != 0 {
		panic(fmt.Sprintf("nas: LU grid %d does not divide over %dx%d procs", n, px, py))
	}
	ix, iy := rank%px, rank/px
	lx, ly := n/px, n/py
	x0, y0 := ix*lx, iy*ly

	res := LUResult{Class: class.Name, NP: p}

	// u is the local pencil (lx × ly × n), x fastest.
	idx := func(x, y, z int) int { return (z*ly+y)*lx + x }
	u := make([]float64, lx*ly*n)
	for x := 0; x < lx; x++ {
		for y := 0; y < ly; y++ {
			for z := 0; z < n; z++ {
				gx, gy := x0+x, y0+y
				u[idx(x, y, z)] = math.Sin(float64(gx+2*gy+3*z) * 0.01)
			}
		}
	}

	west, east := rank-1, rank+1
	south, north := rank-px, rank+px
	edgeW := make([]float64, ly) // boundary strip from the west (per plane)
	edgeS := make([]float64, lx)
	strip := make([]byte, 8*max(lx, ly)) // every strip message, packed
	// zeros stands in for the plane beyond each sweep's last: the point
	// update still adds its k term, which is then +0.
	zeros := make([]float64, lx*ly)
	planeSize := lx * ly
	plane := func(z int) []float64 {
		if z < 0 || z >= n {
			return zeros
		}
		return u[z*planeSize : (z+1)*planeSize]
	}

	c.Barrier()
	t0 := c.Time()

	for it := 0; it < class.Iterations; it++ {
		// Lower sweep: dependencies flow +x, +y, so the wavefront starts
		// at the SW pencil and pipelines over k.
		for z := 0; z < n; z++ {
			if ix > 0 {
				recvStrip(c, west, 11, edgeW, strip)
			} else {
				zero(edgeW)
			}
			if iy > 0 {
				recvStrip(c, south, 12, edgeS, strip)
			} else {
				zero(edgeS)
			}
			luLowerPlane(plane(z), plane(z-1), edgeW, edgeS, lx)
			c.Compute(nops(lx*ly) * class.PointCost)
			if ix < px-1 {
				sendStrip(c, east, 11, plane(z), lx-1, lx, ly, strip)
			}
			if iy < py-1 {
				sendStrip(c, north, 12, plane(z), (ly-1)*lx, 1, lx, strip)
			}
		}
		// Upper sweep: mirrored, from the NE pencil.
		for z := n - 1; z >= 0; z-- {
			if ix < px-1 {
				recvStrip(c, east, 13, edgeW, strip)
			} else {
				zero(edgeW)
			}
			if iy < py-1 {
				recvStrip(c, north, 14, edgeS, strip)
			} else {
				zero(edgeS)
			}
			luUpperPlane(plane(z), plane(z+1), edgeW, edgeS, lx)
			c.Compute(nops(lx*ly) * class.PointCost)
			if ix > 0 {
				sendStrip(c, west, 13, plane(z), 0, lx, ly, strip)
			}
			if iy > 0 {
				sendStrip(c, south, 14, plane(z), 0, 1, lx, strip)
			}
		}
	}

	el := []int64{int64(c.Time() - t0)}
	c.AllreduceInt64(el, mpi.Max)
	res.Elapsed = sim.Time(el[0])

	// Global checksum: decomposition-invariant verification.
	var sum float64
	for _, v := range u {
		sum += v
	}
	s := []float64{sum}
	c.AllreduceFloat64(s, mpi.Sum)
	res.Checksum = s[0] / float64(n*n*n)
	res.Verified = !math.IsNaN(res.Checksum) && !math.IsInf(res.Checksum, 0)
	return res
}

// Every point update is u = 0.2*u + 0.25*(a+b+k) + 0.05, where a is the
// neighbour earlier along x, b the neighbour earlier along y (both in the
// sweep's direction, or the boundary strip at the block's edge) and k the
// point in the previous plane. The plane routines below hoist the edge
// tests out of the loop and relax two rows at once, the second one point
// behind the first, so that its point needs only values the first row
// finished a step earlier. That overlaps the two rows' dependency chains
// (each point waits on five operations through a) without changing any
// operation or operand: every point still sees exactly the neighbours the
// plain row-by-row, point-by-point order gives it.

// luLowerPlane runs the lower sweep over one plane: rows in increasing y,
// points in increasing x. below is the previous plane (or zeros).
func luLowerPlane(pl, below, edgeW, edgeS []float64, lx int) {
	ly := len(pl) / lx
	south := edgeS
	y := 0
	for ; y+1 < ly; y += 2 {
		r0, r1 := pl[y*lx:(y+1)*lx], pl[(y+1)*lx:(y+2)*lx]
		luLowerPair(r0, r1, south, below[y*lx:(y+1)*lx], below[(y+1)*lx:(y+2)*lx], edgeW[y], edgeW[y+1])
		south = r1
	}
	if y < ly {
		luLowerRow(pl[y*lx:(y+1)*lx], south, below[y*lx:(y+1)*lx], edgeW[y])
	}
}

// luLowerRow relaxes one row; w is the west boundary value.
func luLowerRow(r, s, k []float64, w float64) {
	s, k = s[:len(r)], k[:len(r)]
	for x := range r {
		w = 0.2*r[x] + 0.25*(w+s[x]+k[x]) + 0.05
		r[x] = w
	}
}

// luLowerPair relaxes row r0 and the row r1 after it, r1 one point behind:
// r1's point x-1 takes as its south neighbour r0's point x-1, finished on
// the step before.
func luLowerPair(r0, r1, s0, k0, k1 []float64, w0, w1 float64) {
	n := len(r0)
	r1, s0, k0, k1 = r1[:n], s0[:n], k0[:n], k1[:n]
	w0 = 0.2*r0[0] + 0.25*(w0+s0[0]+k0[0]) + 0.05
	r0[0] = w0
	for x := 1; x < n; x++ {
		a := 0.2*r0[x] + 0.25*(w0+s0[x]+k0[x]) + 0.05
		b := 0.2*r1[x-1] + 0.25*(w1+w0+k1[x-1]) + 0.05
		r0[x], r1[x-1] = a, b
		w0, w1 = a, b
	}
	r1[n-1] = 0.2*r1[n-1] + 0.25*(w1+w0+k1[n-1]) + 0.05
}

// luUpperPlane runs the upper sweep over one plane: rows in decreasing y,
// points in decreasing x. above is the next plane (or zeros); edgeE and
// edgeN are the east and north boundary strips.
func luUpperPlane(pl, above, edgeE, edgeN []float64, lx int) {
	ly := len(pl) / lx
	north := edgeN
	y := ly - 1
	for ; y > 0; y -= 2 {
		r0, r1 := pl[y*lx:(y+1)*lx], pl[(y-1)*lx:y*lx]
		luUpperPair(r0, r1, north, above[y*lx:(y+1)*lx], above[(y-1)*lx:y*lx], edgeE[y], edgeE[y-1])
		north = r1
	}
	if y == 0 {
		luUpperRow(pl[:lx], north, above[:lx], edgeE[0])
	}
}

// luUpperRow relaxes one row from its east end; e is the east boundary.
func luUpperRow(r, nn, k []float64, e float64) {
	nn, k = nn[:len(r)], k[:len(r)]
	for x := len(r) - 1; x >= 0; x-- {
		e = 0.2*r[x] + 0.25*(e+nn[x]+k[x]) + 0.05
		r[x] = e
	}
}

// luUpperPair is luLowerPair mirrored: r1 is the row below r0, one point
// behind it going west.
func luUpperPair(r0, r1, n0, k0, k1 []float64, e0, e1 float64) {
	n := len(r0)
	r1, n0, k0, k1 = r1[:n], n0[:n], k0[:n], k1[:n]
	e0 = 0.2*r0[n-1] + 0.25*(e0+n0[n-1]+k0[n-1]) + 0.05
	r0[n-1] = e0
	for x := n - 2; x >= 0; x-- {
		a := 0.2*r0[x] + 0.25*(e0+n0[x]+k0[x]) + 0.05
		b := 0.2*r1[x+1] + 0.25*(e1+e0+k1[x+1]) + 0.05
		r0[x], r1[x+1] = a, b
		e0, e1 = a, b
	}
	r1[0] = 0.2*r1[0] + 0.25*(e1+e0+k1[0]) + 0.05
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// recvStrip receives a boundary strip into strip, through the byte buffer
// buf.
func recvStrip(c *mpi.Comm, from, tag int, strip []float64, buf []byte) {
	buf = buf[:8*len(strip)]
	c.Recv(from, tag, buf)
	for i := range strip {
		strip[i] = math.Float64frombits(getU64(buf[8*i:]))
	}
}

// sendStrip sends n values of pl, starting at off and stride apart, packed
// into the byte buffer buf.
func sendStrip(c *mpi.Comm, to, tag int, pl []float64, off, stride, n int, buf []byte) {
	buf = buf[:8*n]
	for i := 0; i < n; i++ {
		putU64(buf[8*i:], math.Float64bits(pl[off+i*stride]))
	}
	c.Send(to, tag, buf)
}

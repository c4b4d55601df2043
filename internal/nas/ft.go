package nas

import (
	"fmt"
	"math"
	"math/cmplx"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// FTClass describes one NPB Fourier Transform problem class.
type FTClass struct {
	Name       byte
	NX, NY, NZ int
	Iterations int
	// PointCost is the calibrated Power6 cost per grid point per
	// iteration cycle (one 3-D FFT pass including pack/unpack and the
	// spectral evolve), charged to the virtual clock. One number covers
	// both FFT flops (5·log2 N per point) and the memory-streaming
	// passes; it is calibrated so the compute/communication ratio of the
	// paper's testbed is reproduced (see EXPERIMENTS.md).
	PointCost sim.Time
}

// NPB FT problem classes.
var (
	FTClassS = FTClass{'S', 64, 64, 64, 6, 20 * sim.Nanosecond}
	FTClassW = FTClass{'W', 128, 128, 32, 6, 21 * sim.Nanosecond}
	FTClassA = FTClass{'A', 256, 256, 128, 6, 26 * sim.Nanosecond}
	FTClassB = FTClass{'B', 512, 256, 256, 20, 27 * sim.Nanosecond}
	FTClassC = FTClass{'C', 512, 512, 512, 20, 28 * sim.Nanosecond}
)

// FTClassByName resolves "S", "W", "A", "B", "C".
func FTClassByName(name byte) (FTClass, error) {
	switch name {
	case 'S':
		return FTClassS, nil
	case 'W':
		return FTClassW, nil
	case 'A':
		return FTClassA, nil
	case 'B':
		return FTClassB, nil
	case 'C':
		return FTClassC, nil
	}
	return FTClass{}, fmt.Errorf("nas: unknown FT class %q", string(name))
}

// Points reports the total grid points.
func (c FTClass) Points() int { return c.NX * c.NY * c.NZ }

// ValidFor reports whether the slab decomposition supports np ranks.
func (c FTClass) ValidFor(np int) bool { return np > 0 && c.NZ%np == 0 && c.NX%np == 0 }

// FTResult reports a finished FT run.
type FTResult struct {
	Class     byte
	NP        int
	Elapsed   sim.Time     // timed region: forward FFT + iterations
	Checksums []complex128 // per-iteration checksums (real mode only)
	// Verified reports the numeric check. In real mode, a class whose
	// NPB 3.x reference checksums are bundled (class S) must match all of
	// them to NPB's relative epsilon of 1e-12; any other class only needs
	// every checksum to be finite. Synthetic mode computes no field, so
	// there is nothing to check and Verified is always true.
	Verified bool
}

// ftEpsilon is NPB FT's verification tolerance: the relative error of each
// iteration's checksum against the published value.
const ftEpsilon = 1e-12

// ftReference holds NPB 3.x's published FT checksums, one per iteration,
// for the grids whose table is bundled. NPB's inverse FFT is unnormalised,
// so its checksum is this package's Checksums[i] times the grid's point
// count.
var ftReference = map[[4]int][]complex128{
	{64, 64, 64, 6}: { // class S
		complex(5.546087004964e+02, 4.845363331978e+02),
		complex(5.546385409189e+02, 4.865304269511e+02),
		complex(5.546148406171e+02, 4.883910722336e+02),
		complex(5.545423607415e+02, 4.901273169046e+02),
		complex(5.544255039624e+02, 4.917475857993e+02),
		complex(5.542683411902e+02, 4.932597244941e+02),
	},
}

// ftVerify checks a real-mode run's checksums: against NPB's reference
// values when the class's grid has a bundled table, else for finiteness.
func ftVerify(class FTClass, chks []complex128) bool {
	if len(chks) != class.Iterations {
		return false
	}
	ref, ok := ftReference[[4]int{class.NX, class.NY, class.NZ, class.Iterations}]
	if !ok {
		for _, chk := range chks {
			if cmplx.IsNaN(chk) || cmplx.IsInf(chk) {
				return false
			}
		}
		return true
	}
	points := complex(float64(class.Points()), 0)
	for i, chk := range chks {
		if !(cmplx.Abs(chk*points-ref[i])/cmplx.Abs(ref[i]) <= ftEpsilon) {
			return false
		}
	}
	return true
}

// ftBoard is the shared exchange board for the transpose (see isBoard).
// Each rank publishes its packed blocks in one of two slots, alternating
// per transpose; turn[r] counts rank r's transposes so far.
type ftBoard struct {
	out  [2][][][]complex128 // [turn&1][src][dst] -> packed block
	turn []int
}

// NewFTBoard allocates the shared transpose board for one job.
func NewFTBoard(np int) *ftBoard {
	b := &ftBoard{turn: make([]int, np)}
	for s := range b.out {
		b.out[s] = make([][][]complex128, np)
		for i := range b.out[s] {
			b.out[s][i] = make([][]complex128, np)
		}
	}
	return b
}

// RunFT executes the NPB FT kernel: an initial forward 3-D FFT of the
// random field, then Iterations of {spectral evolve, inverse 3-D FFT,
// checksum}. The grid is decomposed in z-slabs; the transpose between the
// (x,y)-local and z-local phases is an MPI Alltoall, the communication the
// paper's §4.4 FT results exercise.
//
// In synthetic mode no field is allocated: the compute charges and the
// Alltoall/Allreduce traffic are identical, but no checksums are produced.
// NZ must be divisible by the number of ranks, and NX by the number of
// ranks, for the slab decomposition.
func RunFT(c *mpi.Comm, class FTClass, synthetic bool, board *ftBoard) FTResult {
	p := c.Size()
	rank := c.Rank()
	nx, ny, nz := class.NX, class.NY, class.NZ
	if nz%p != 0 || nx%p != 0 {
		panic(fmt.Sprintf("nas: FT grid %dx%dx%d not divisible by %d ranks", nx, ny, nz, p))
	}
	lz := nz / p // local z planes (z-slab phase)
	lx := nx / p // local x planes (x-slab phase)
	localPts := lz * ny * nx
	blockPts := lz * ny * lx // per-pair transpose block
	blockBytes := blockPts * 16

	res := FTResult{Class: class.Name, NP: p}

	if synthetic {
		// Same clock charges and traffic, no field.
		c.Compute(nops(localPts) * class.PointCost / 2) // init field
		c.Barrier()
		t0 := c.Time()
		fwd := func() {
			c.Compute(nops(localPts) * class.PointCost * 6 / 10)
			c.Alltoall(nil, blockBytes, nil)
			c.Compute(nops(localPts) * class.PointCost * 4 / 10)
		}
		fwd() // initial forward FFT
		for it := 1; it <= class.Iterations; it++ {
			fwd() // evolve + inverse FFT (same cost structure)
			sum := []float64{0, 0}
			c.AllreduceFloat64(sum, mpi.Sum)
		}
		el := c.Time() - t0
		e := []int64{int64(el)}
		c.AllreduceInt64(e, mpi.Max)
		res.Elapsed = sim.Time(e[0])
		res.Verified = true
		return res
	}

	// ---- real mode ----
	// Three fields live for the whole run: the z-slab field (the initial
	// condition, then each iteration's physical result), the spectral
	// x-slab field, and the evolved x-slab field the inverse consumes.
	w := &ftWork{c: c, class: class, board: board, lz: lz, lx: lx,
		blocks: [2][]complex128{make([]complex128, p*blockPts), make([]complex128, p*blockPts)},
		line:   make([]complex128, ny)}
	phys := make([]complex128, localPts)
	spec := make([]complex128, localPts)
	ut := make([]complex128, localPts)

	// Initial condition: NPB fills the field with LCG randoms, x fastest.
	r := NewRandom(314159265).Skip(uint64(rank) * uint64(localPts) * 2)
	for i := range phys {
		re := r.Next()
		im := r.Next()
		phys[i] = complex(re, im)
	}
	c.Compute(nops(localPts) * class.PointCost / 2)

	c.Barrier()
	t0 := c.Time()

	// Forward 3-D FFT of the initial field -> spectral field in x-slab
	// layout.
	w.forward3D(phys, spec)

	// decay[k2] is the evolve factor of every point whose squared
	// frequency is k2, recomputed each iteration from the same expression.
	maxK2 := (nx/2)*(nx/2) + (ny/2)*(ny/2) + (nz/2)*(nz/2)
	decay := make([]float64, maxK2+1)
	alpha := 1e-6
	for it := 1; it <= class.Iterations; it++ {
		for k2 := range decay {
			decay[k2] = math.Exp(-4 * alpha * math.Pi * math.Pi * float64(k2) * float64(it))
		}
		// Evolve in spectral space: x-slab layout (xl, y, z).
		for xl := 0; xl < lx; xl++ {
			kx := freq(rank*lx+xl, nx)
			for y := 0; y < ny; y++ {
				ky := freq(y, ny)
				kxy := kx*kx + ky*ky
				base := (xl*ny + y) * nz
				s, u := spec[base:base+nz], ut[base:base+nz]
				for z := range u {
					kz := freq(z, nz)
					u[z] = s[z] * complex(decay[kxy+kz*kz], 0)
				}
			}
		}
		// Inverse 3-D FFT back to z-slab layout.
		w.inverse3D(ut, phys)
		// Checksum over the NPB sample points, then global sum.
		chk := checksum(phys, rank, lz, nx, ny, nz)
		sum := []float64{real(chk), imag(chk)}
		c.AllreduceFloat64(sum, mpi.Sum)
		res.Checksums = append(res.Checksums, complex(sum[0]/float64(class.Points()), sum[1]/float64(class.Points())))
	}

	el := c.Time() - t0
	e := []int64{int64(el)}
	c.AllreduceInt64(e, mpi.Max)
	res.Elapsed = sim.Time(e[0])
	res.Verified = ftVerify(class, res.Checksums)
	return res
}

// freq maps a grid index to its signed frequency.
func freq(i, n int) int {
	if i >= n/2 {
		return i - n
	}
	return i
}

// ftWork is one real-mode FT run's scratch, allocated once per call.
type ftWork struct {
	c      *mpi.Comm
	class  FTClass
	board  *ftBoard
	lz, lx int
	blocks [2][]complex128 // packed transpose blocks, one set per board slot
	line   []complex128    // one strided y column
}

// forward3D transforms a z-slab field u (z,y,x layout, x fastest) into the
// spectral x-slab layout (xl,y,z layout, z fastest) in out. u is
// overwritten as scratch.
func (w *ftWork) forward3D(u, out []complex128) {
	nx, ny, nz := w.class.NX, w.class.NY, w.class.NZ
	localPts := w.lz * ny * nx
	// FFT along x: contiguous rows.
	for row := 0; row < w.lz*ny; row++ {
		Forward(u[row*nx : (row+1)*nx])
	}
	// FFT along y: strided columns per (z, x).
	w.columns(u, Forward)
	w.c.Compute(nops(localPts) * w.class.PointCost * 6 / 10)

	// Transpose to x-slabs.
	w.transpose(u, out, true)

	// FFT along z: contiguous rows in (xl,y,z) layout.
	for row := 0; row < w.lx*ny; row++ {
		Forward(out[row*nz : (row+1)*nz])
	}
	w.c.Compute(nops(localPts) * w.class.PointCost * 4 / 10)
}

// inverse3D transforms a spectral x-slab field v back to the physical
// z-slab layout in out. v is overwritten as scratch.
func (w *ftWork) inverse3D(v, out []complex128) {
	nx, ny, nz := w.class.NX, w.class.NY, w.class.NZ
	localPts := w.lz * ny * nx
	// Inverse FFT along z.
	for row := 0; row < w.lx*ny; row++ {
		Inverse(v[row*nz : (row+1)*nz])
	}
	w.c.Compute(nops(localPts) * w.class.PointCost * 4 / 10)

	// Transpose back to z-slabs.
	w.transpose(v, out, false)

	// Inverse FFT along y then x.
	w.columns(out, Inverse)
	for row := 0; row < w.lz*ny; row++ {
		Inverse(out[row*nx : (row+1)*nx])
	}
	w.c.Compute(nops(localPts) * w.class.PointCost * 6 / 10)
}

// columns applies a 1-D transform to every y column of a z-slab field.
func (w *ftWork) columns(u []complex128, transform func([]complex128)) {
	nx, ny := w.class.NX, w.class.NY
	line := w.line
	for zl := 0; zl < w.lz; zl++ {
		plane := u[zl*ny*nx : (zl+1)*ny*nx]
		for x := 0; x < nx; x++ {
			for y := range line {
				line[y] = plane[y*nx+x]
			}
			transform(line)
			for y, v := range line {
				plane[y*nx+x] = v
			}
		}
	}
}

// transpose exchanges slabs from in into out: forward (zslab→xslab) packs
// blocks by destination x-range and unpacks into (xl,y,z); backward
// reverses. The payloads move through the shared board while the MPI
// Alltoall simulates transfers of identical size.
//
// The packed blocks and the board slot they are published in alternate
// between two sets per transpose. That is what makes reusing them safe: a
// rank packs into a set again only two transposes later, after its
// intervening Alltoall has completed, and that Alltoall cannot complete
// before every peer has entered it, which each peer does only after
// unpacking this set.
func (w *ftWork) transpose(in, out []complex128, fwd bool) {
	c, board := w.c, w.board
	p := c.Size()
	rank := c.Rank()
	nx, ny, nz := w.class.NX, w.class.NY, w.class.NZ
	lz, lx := w.lz, w.lx
	blockPts := lz * ny * lx
	set := board.turn[rank] & 1
	board.turn[rank]++
	slot := board.out[set]
	// Pack.
	for dst := 0; dst < p; dst++ {
		blk := w.blocks[set][dst*blockPts : (dst+1)*blockPts]
		if fwd {
			for zl := 0; zl < lz; zl++ {
				for y := 0; y < ny; y++ {
					src := (zl*ny+y)*nx + dst*lx
					dstOff := (zl*ny + y) * lx
					copy(blk[dstOff:dstOff+lx], in[src:src+lx])
				}
			}
		} else {
			// in is (xl, y, z); block for dst carries z ∈ dst's slab.
			for xl := 0; xl < lx; xl++ {
				for y := 0; y < ny; y++ {
					src := (xl*ny+y)*nz + dst*lz
					dstOff := (xl*ny + y) * lz
					copy(blk[dstOff:dstOff+lz], in[src:src+lz])
				}
			}
		}
		slot[rank][dst] = blk
	}
	// Simulated exchange (synthetic payloads of exact block size).
	c.Alltoall(nil, blockPts*16, nil)
	// Unpack.
	if fwd {
		// out is (xl, y, z), z fastest.
		for src := 0; src < p; src++ {
			blk := slot[src][rank]
			for zl := 0; zl < lz; zl++ {
				for y := 0; y < ny; y++ {
					row := blk[(zl*ny+y)*lx : (zl*ny+y+1)*lx]
					for xl, v := range row {
						out[(xl*ny+y)*nz+src*lz+zl] = v
					}
				}
			}
		}
	} else {
		// out is (zl, y, x), x fastest.
		for src := 0; src < p; src++ {
			blk := slot[src][rank]
			for xl := 0; xl < lx; xl++ {
				for y := 0; y < ny; y++ {
					row := blk[(xl*ny+y)*lz : (xl*ny+y+1)*lz]
					for zl, v := range row {
						out[(zl*ny+y)*nx+src*lx+xl] = v
					}
				}
			}
		}
	}
}

// checksum sums the field at the NPB sample points that fall in this rank's
// z-slab: for j = 1..1024, the point (j mod nx, 3j mod ny, 5j mod nz).
func checksum(u []complex128, rank, lz, nx, ny, nz int) complex128 {
	var chk complex128
	zLo, zHi := rank*lz, (rank+1)*lz
	for j := 1; j <= 1024; j++ {
		x := j % nx
		y := (3 * j) % ny
		z := (5 * j) % nz
		if z >= zLo && z < zHi {
			chk += u[((z-zLo)*ny+y)*nx+x]
		}
	}
	return chk
}

package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/trace"
)

// Property tests for the lane-decomposed collectives: for randomized
// payload sizes — including n < L, n % L != 0, and zero-length — every
// root, and both eager- and rendezvous-regime sizes, the lane algorithms
// must produce the same user-visible bytes as the reference collectives.

// lanePattern fills a deterministic per-rank payload.
func lanePattern(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*131 + i*7 + (i>>8)*13)
	}
	return b
}

// laneSizes are the property sweep's payload sizes: element-sub-lane
// sizes, non-multiples of the lane count, the eager/rendezvous threshold
// (16K) from both sides, and a size large enough that every lane's ring
// pieces are themselves rendezvous transfers.
var laneSizes = []int{0, 1, 7, 8, 24, 511, 513, 768, 4096, 16384, 16384 + 8, 64 << 10, 256<<10 + 8}

func laneCfg(nodes, ppn int, alg CollAlg, rndv adi.RndvProto) Config {
	c := cfg(nodes, ppn, 4, core.EPC)
	c.CollAlg = alg
	c.Rndv = rndv
	return c
}

func TestLaneBcastMatchesReference(t *testing.T) {
	for _, rndv := range []adi.RndvProto{adi.RndvWrite, adi.RndvRead} {
		for _, shape := range [][2]int{{2, 2}, {3, 1}} {
			p := shape[0] * shape[1]
			for _, n := range laneSizes {
				for root := 0; root < p; root++ {
					want := lanePattern(root, n)
					mustRun(t, laneCfg(shape[0], shape[1], CollLane, rndv), func(c *Comm) {
						buf := make([]byte, n)
						if c.Rank() == root {
							copy(buf, want)
						}
						c.Bcast(root, buf)
						if !bytes.Equal(buf, want) {
							t.Errorf("rndv=%v p=%d n=%d root=%d rank=%d: lane bcast payload mismatch",
								rndv, p, n, root, c.Rank())
						}
					})
				}
			}
		}
	}
}

func TestLaneAllgatherMatchesReference(t *testing.T) {
	for _, rndv := range []adi.RndvProto{adi.RndvWrite, adi.RndvRead} {
		for _, shape := range [][2]int{{2, 2}, {3, 1}} {
			p := shape[0] * shape[1]
			for _, n := range laneSizes {
				want := make([]byte, p*n)
				for r := 0; r < p; r++ {
					copy(want[r*n:], lanePattern(r, n))
				}
				mustRun(t, laneCfg(shape[0], shape[1], CollLane, rndv), func(c *Comm) {
					recv := make([]byte, p*n)
					c.Allgather(lanePattern(c.Rank(), n), n, recv)
					if !bytes.Equal(recv, want) {
						t.Errorf("rndv=%v p=%d n=%d rank=%d: lane allgather mismatch", rndv, p, n, c.Rank())
					}
					// The documented aliasing contract: send may alias
					// recv[rank*n:].
					recv2 := make([]byte, p*n)
					copy(recv2[c.Rank()*n:], lanePattern(c.Rank(), n))
					c.Allgather(recv2[c.Rank()*n:(c.Rank()+1)*n], n, recv2)
					if !bytes.Equal(recv2, want) {
						t.Errorf("rndv=%v p=%d n=%d rank=%d: aliased lane allgather mismatch", rndv, p, n, c.Rank())
					}
				})
			}
		}
	}
}

func TestLaneReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{2, 2}, {3, 1}} {
		p := shape[0] * shape[1]
		for _, elems := range []int{0, 1, 3, 96, 2048, 8192, 32768 + 1} {
			inputs := make([][]int64, p)
			for r := range inputs {
				inputs[r] = make([]int64, elems)
				for i := range inputs[r] {
					inputs[r][i] = rng.Int63n(1<<40) - 1<<39
				}
			}
			for _, op := range []Op{Sum, Max, Min} {
				want := make([]int64, elems)
				copy(want, inputs[0])
				for r := 1; r < p; r++ {
					for i := range want {
						switch op {
						case Sum:
							want[i] += inputs[r][i]
						case Max:
							if inputs[r][i] > want[i] {
								want[i] = inputs[r][i]
							}
						case Min:
							if inputs[r][i] < want[i] {
								want[i] = inputs[r][i]
							}
						}
					}
				}
				root := p - 1
				mustRun(t, laneCfg(shape[0], shape[1], CollLane, adi.RndvWrite), func(c *Comm) {
					v := make([]int64, elems)
					copy(v, inputs[c.Rank()])
					c.AllreduceInt64(v, op)
					for i := range v {
						if v[i] != want[i] {
							t.Errorf("p=%d elems=%d op=%v rank=%d: lane allreduce[%d] = %d, want %d",
								p, elems, op, c.Rank(), i, v[i], want[i])
							break
						}
					}
					w := make([]int64, elems)
					copy(w, inputs[c.Rank()])
					c.ReduceInt64(root, w, op)
					if c.Rank() == root {
						for i := range w {
							if w[i] != want[i] {
								t.Errorf("p=%d elems=%d op=%v: lane reduce[%d] = %d, want %d",
									p, elems, op, i, w[i], want[i])
								break
							}
						}
					}
				})
			}
		}
	}
}

// TestLaneFloatReduce pins the exact operators (Min/Max) bit-identical and
// the non-associative float Sum within reassociation tolerance.
func TestLaneFloatReduce(t *testing.T) {
	const elems = 4096 // 32KB: rendezvous-size lanes
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]float64, 4)
	for r := range inputs {
		inputs[r] = make([]float64, elems)
		for i := range inputs[r] {
			inputs[r][i] = rng.NormFloat64() * 1e3
		}
	}
	for _, op := range []Op{Max, Min, Sum} {
		want := make([]float64, elems)
		copy(want, inputs[0])
		for r := 1; r < 4; r++ {
			for i := range want {
				switch op {
				case Max:
					want[i] = math.Max(want[i], inputs[r][i])
				case Min:
					want[i] = math.Min(want[i], inputs[r][i])
				case Sum:
					want[i] += inputs[r][i]
				}
			}
		}
		mustRun(t, laneCfg(2, 2, CollLane, adi.RndvWrite), func(c *Comm) {
			v := make([]float64, elems)
			copy(v, inputs[c.Rank()])
			c.AllreduceFloat64(v, op)
			for i := range v {
				if op == Sum {
					if d := math.Abs(v[i] - want[i]); d > 1e-9*math.Max(1, math.Abs(want[i])) {
						t.Errorf("op=Sum rank=%d: allreduce[%d] = %g, want %g (Δ%g)", c.Rank(), i, v[i], want[i], d)
						break
					}
				} else if v[i] != want[i] {
					t.Errorf("op=%v rank=%d: allreduce[%d] = %g, want %g (exact op must be bit-identical)",
						op, c.Rank(), i, v[i], want[i])
					break
				}
			}
		})
	}
}

// TestLaneBcastFirstOperation: the lane width is known before any
// connection is wired, so a lane Bcast that is every rank's first operation
// takes the lane path (its rendezvous pieces are pinned to their lanes).
func TestLaneBcastFirstOperation(t *testing.T) {
	const n = 256 << 10
	c := laneCfg(2, 2, CollLane, adi.RndvWrite)
	c.Trace = trace.NewRecorder(1 << 12)
	mustRun(t, c, func(cm *Comm) {
		buf := make([]byte, n)
		if cm.Rank() == 0 {
			copy(buf, lanePattern(0, n))
		}
		cm.Bcast(0, buf)
		if !bytes.Equal(buf, lanePattern(0, n)) {
			t.Errorf("rank %d: bcast payload mismatch", cm.Rank())
		}
	})
	pins := 0
	for _, ev := range c.Trace.Events() {
		if ev.Kind == trace.KindLanePin {
			pins++
		}
	}
	if pins == 0 {
		t.Error("first-operation lane Bcast took the reference path: no LANEPIN events")
	}
}

// TestLaneFallbacks: configurations where lane decomposition cannot apply
// (single rail, single node / all-shmem, CollAuto below threshold) must
// dispatch to the reference algorithms and still be correct.
func TestLaneFallbacks(t *testing.T) {
	// Single rail: c.lanes < 2.
	c1 := cfg(2, 1, 1, core.Original)
	c1.CollAlg = CollLane
	mustRun(t, c1, func(c *Comm) {
		v := []int64{int64(c.Rank() + 1)}
		c.AllreduceInt64(v, Sum)
		if v[0] != 3 {
			t.Errorf("single-rail lane fallback: sum = %d, want 3", v[0])
		}
	})
	// Single node: every peer is shmem, InterRails() == 0.
	c2 := cfg(1, 4, 4, core.EPC)
	c2.CollAlg = CollLane
	mustRun(t, c2, func(c *Comm) {
		buf := lanePattern(0, 32<<10)
		c.Bcast(0, buf)
		if !bytes.Equal(buf, lanePattern(0, 32<<10)) {
			t.Errorf("single-node lane fallback: bcast mismatch at rank %d", c.Rank())
		}
	})
	// CollAuto: below the threshold the reference path runs (digest-exact
	// vs CollStriped), above it the lane path runs; both must be correct.
	for _, n := range []int{4096, 256 << 10} {
		mustRun(t, laneCfg(2, 2, CollAuto, adi.RndvWrite), func(c *Comm) {
			buf := make([]byte, n)
			if c.Rank() == 1 {
				copy(buf, lanePattern(1, n))
			}
			c.Bcast(1, buf)
			if !bytes.Equal(buf, lanePattern(1, n)) {
				t.Errorf("CollAuto n=%d: bcast mismatch at rank %d", n, c.Rank())
			}
		})
	}
}

// TestLaneSplitInheritance: Split children keep the parent's algorithm
// selection and lane width, and lane collectives work on a proper
// sub-communicator with remapped ranks.
func TestLaneSplitInheritance(t *testing.T) {
	const n = 32 << 10
	mustRun(t, laneCfg(2, 2, CollLane, adi.RndvWrite), func(c *Comm) {
		// Odd/even split pairs ranks across nodes (world 0,2 and 1,3 on
		// a 2-node × 2-ppn layout → each child spans both nodes).
		child := c.Split(c.Rank()%2, c.Rank())
		if child == nil {
			t.Fatalf("rank %d: nil child", c.Rank())
		}
		buf := make([]byte, n)
		if child.Rank() == 0 {
			copy(buf, lanePattern(c.Rank()%2, n))
		}
		child.Bcast(0, buf)
		if !bytes.Equal(buf, lanePattern(c.Rank()%2, n)) {
			t.Errorf("world rank %d: lane bcast on split child mismatch", c.Rank())
		}
	})
}

// TestLaneBufLive: both rendezvous protocols release every payload view
// after lane collectives quiesce.
func TestLaneBufLive(t *testing.T) {
	for _, rndv := range []adi.RndvProto{adi.RndvWrite, adi.RndvRead} {
		c := laneCfg(2, 2, CollLane, rndv)
		c.BufAudit = true
		rep := mustRun(t, c, func(c *Comm) {
			buf := make([]byte, 256<<10)
			c.Bcast(0, buf)
			recv := make([]byte, c.Size()*16384)
			c.Allgather(recv[:16384], 16384, recv)
			v := make([]int64, 8192)
			c.AllreduceInt64(v, Sum)
		})
		if live := rep.World.BufLive(); live != 0 {
			t.Fatalf("rndv=%v: %d payload views still live after lane collectives:\n%s",
				rndv, live, rep.World.BufLiveReport())
		}
	}
}

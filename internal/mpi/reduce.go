package mpi

import (
	"encoding/binary"
	"math"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// combinerInt64 returns an element-wise combine over little-endian int64s.
func combinerInt64(op Op) func(dst, src []byte) {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			var r int64
			switch op {
			case Sum:
				r = a + b
			case Max:
				r = a
				if b > a {
					r = b
				}
			case Min:
				r = a
				if b < a {
					r = b
				}
			}
			binary.LittleEndian.PutUint64(dst[i:], uint64(r))
		}
	}
}

// combinerFloat64 returns an element-wise combine over little-endian
// float64s.
func combinerFloat64(op Op) func(dst, src []byte) {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			var r float64
			switch op {
			case Sum:
				r = a + b
			case Max:
				r = math.Max(a, b)
			case Min:
				r = math.Min(a, b)
			}
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(r))
		}
	}
}

func putInt64s(b []byte, v []int64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

func bytesToInt64s(b []byte, v []int64) {
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func putFloat64s(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// scratch returns the communicator's two reduction buffers, each n bytes
// long. They grow and are never shrunk or shared, so a typed reduction
// allocates nothing once the communicator has seen its largest vector. A
// reduction blocks until every message it sent or received has completed,
// and no payload view outlives that (a rendezvous send drops its wrap of
// the buffer at FIN), so the next call may reuse them.
func (c *Comm) scratch(n int) (b, tmp []byte) {
	if cap(c.red[0]) < n {
		c.red[0], c.red[1] = make([]byte, n), make([]byte, n)
	}
	return c.red[0][:n], c.red[1][:n]
}

// int64Scratch is scratch with the first buffer holding v's bytes.
func (c *Comm) int64Scratch(v []int64) (b, tmp []byte) {
	b, tmp = c.scratch(8 * len(v))
	putInt64s(b, v)
	return b, tmp
}

// float64Scratch is scratch with the first buffer holding v's bytes.
func (c *Comm) float64Scratch(v []float64) (b, tmp []byte) {
	b, tmp = c.scratch(8 * len(v))
	putFloat64s(b, v)
	return b, tmp
}

func bytesToFloat64s(b []byte, v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// allreduceDispatch routes a typed allreduce to the lane-decomposed or
// reference algorithm. The typed entry points guarantee 8-byte element
// granularity, which the lane partition's aligned pieces rely on; raw
// AllreduceBytes (opaque combine) always stays on the reference path.
func (c *Comm) allreduceDispatch(b, tmp []byte, combine func(dst, src []byte)) {
	if segs, ok := c.laneActive(len(b)); ok {
		c.laneAllreduce(b, tmp, combine, segs)
		return
	}
	c.allreduceBytes(c.nextCollTag(), b, tmp, combine)
}

// reduceDispatch is allreduceDispatch for rooted reductions.
func (c *Comm) reduceDispatch(root int, b, tmp []byte, combine func(dst, src []byte)) {
	if segs, ok := c.laneActive(len(b)); ok {
		c.laneReduce(root, b, tmp, combine, segs)
		return
	}
	c.reduceBytes(root, c.nextCollTag(), b, tmp, combine)
}

// AllreduceInt64 reduces buf element-wise across all ranks, in place.
func (c *Comm) AllreduceInt64(buf []int64, op Op) {
	b, tmp := c.int64Scratch(buf)
	c.allreduceDispatch(b, tmp, combinerInt64(op))
	bytesToInt64s(b, buf)
}

// AllreduceFloat64 reduces buf element-wise across all ranks, in place.
func (c *Comm) AllreduceFloat64(buf []float64, op Op) {
	b, tmp := c.float64Scratch(buf)
	c.allreduceDispatch(b, tmp, combinerFloat64(op))
	bytesToFloat64s(b, buf)
}

// ReduceInt64 reduces buf element-wise to root; buf holds the result only
// at root (other ranks' buffers are clobbered with partial results, as in
// MPI where the send buffer is input-only).
func (c *Comm) ReduceInt64(root int, buf []int64, op Op) {
	b, tmp := c.int64Scratch(buf)
	c.reduceDispatch(root, b, tmp, combinerInt64(op))
	if c.Rank() == root {
		bytesToInt64s(b, buf)
	}
}

// ReduceFloat64 reduces buf element-wise to root (result valid at root).
func (c *Comm) ReduceFloat64(root int, buf []float64, op Op) {
	b, tmp := c.float64Scratch(buf)
	c.reduceDispatch(root, b, tmp, combinerFloat64(op))
	if c.Rank() == root {
		bytesToFloat64s(b, buf)
	}
}

// AllreduceBytes reduces a raw byte buffer with a caller-supplied combine.
func (c *Comm) AllreduceBytes(buf []byte, combine func(dst, src []byte)) {
	tag := c.nextCollTag()
	tmp := make([]byte, len(buf))
	c.allreduceBytes(tag, buf, tmp, combine)
}

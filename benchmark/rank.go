package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// noiseLen is the size of the seed-derived byte field payloads are cut from;
// maxPayload is the largest single payload any workload sends.
const (
	noiseLen   = 4 << 20
	maxPayload = 1 << 20
)

// inputs is everything a workload derives from the seed, fixed before the
// run starts so every rank reads the same description.
type inputs struct {
	seed  int64
	quick bool // -quick: a few percent of the full iteration counts
	// brk arms the -break self-test: the checker corrupts the first payload
	// rank 0 verifies, which must surface as a failed op.
	brk   bool
	noise []byte
}

func newInputs(seed int64, quick, brk bool) *inputs {
	in := &inputs{seed: seed, quick: quick, brk: brk, noise: make([]byte, noiseLen+maxPayload)}
	rand.New(rand.NewSource(seed)).Read(in.noise)
	return in
}

// iters scales a full-size iteration count down for -quick runs.
func (in *inputs) iters(full int) int {
	if in.quick {
		return max(full/25, 2)
	}
	return full
}

// payload returns the n-byte pattern the keys name: a window of the noise
// field at a seed- and key-hashed offset. Sender and checker derive the same
// window independently, so verifying a receive is one bytes.Equal.
func (in *inputs) payload(n int, k0, k1, k2, k3 int) []byte {
	h := uint64(in.seed)*0x9e3779b97f4a7c15 + 0x1234567
	for _, k := range [4]int{k0, k1, k2, k3} {
		h ^= uint64(k) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	off := int(h % noiseLen)
	return in.noise[off : off+n]
}

// startSkew is how late a rank enters the body, up to 64 ns and derived from
// the seed: the ranks of a real job never start in the same instant. It is
// kept far below a chunk's wire time, so it perturbs arrival order rarely;
// at microseconds the contended workloads' virtual time scatters by percents.
func (in *inputs) startSkew(rank int) sim.Time {
	b := in.payload(2, rank, 0, 0, -1)
	return (sim.Time(b[0])<<8 | sim.Time(b[1])) * sim.Picosecond
}

// span is one MPI call of one rank in virtual time.
type span struct {
	Op         string
	Bytes      int
	Start, End sim.Time
}

// rank is one rank's view of a run: its communicator plus the benchmark's
// own checking and span recording. Each rank touches only its own value, so
// serial and sharded runs need no lock.
type rank struct {
	*mpi.Comm
	in *inputs

	ops, failed int64
	firstFail   string

	tracing bool
	spans   []span

	// extra carries workload-specific virtual-time results (bandwidths,
	// kernel times) out of the body; only rank 0 fills it.
	extra map[string]float64
}

func (x *rank) failf(format string, args ...any) {
	x.failed++
	if x.firstFail == "" {
		x.firstFail = fmt.Sprintf("rank %d: ", x.Rank()) + fmt.Sprintf(format, args...)
	}
}

// end closes the span of an MPI call that started at t0.
func (x *rank) end(op string, n int, t0 sim.Time) {
	if x.tracing {
		x.spans = append(x.spans, span{op, n, t0, x.Time()})
	}
}

// okStatus counts one verification unit: a completed request must carry no
// error and exactly n bytes.
func (x *rank) okStatus(what string, st mpi.Status, n int) {
	x.ops++
	if st.Err != nil {
		x.failf("%s: %v", what, st.Err)
	} else if st.Count != n {
		x.failf("%s: %d bytes, want %d", what, st.Count, n)
	}
}

// okBytes counts one verification unit: got must equal the seed-derived
// pattern want.
func (x *rank) okBytes(what string, got, want []byte) {
	x.ops++
	if x.in.brk && x.Rank() == 0 && len(got) > 0 {
		x.in.brk = false
		got[len(got)/2] ^= 0x40
	}
	if !bytes.Equal(got, want) {
		x.failf("%s: payload mismatch (%d bytes)", what, len(got))
	}
}

// okRecv counts one verification unit for a completed real-payload receive:
// its status must be clean and its bytes must equal want.
func (x *rank) okRecv(what string, st mpi.Status, buf, want []byte) {
	if st.Err != nil || st.Count != len(want) {
		x.okStatus(what, st, len(want))
	} else {
		x.okBytes(what, buf[:st.Count], want)
	}
}

// ---- checked, span-recording MPI calls ----

func (x *rank) send(dst, tag int, data []byte) {
	t0 := x.Time()
	st := x.Send(dst, tag, data)
	x.end("send", len(data), t0)
	x.okStatus("send", st, len(data))
}

func (x *rank) recv(src, tag int, buf, want []byte) {
	t0 := x.Time()
	st := x.Recv(src, tag, buf)
	x.end("recv", len(buf), t0)
	x.okRecv("recv", st, buf, want)
}

func (x *rank) sendrecv(dst, stag int, sdata []byte, src, rtag int, rbuf, want []byte) {
	t0 := x.Time()
	st := x.Sendrecv(dst, stag, sdata, src, rtag, rbuf)
	x.end("sendrecv", len(sdata), t0)
	x.okRecv("sendrecv", st, rbuf, want)
}

// sendrecvN is the synthetic-payload exchange: no bytes to compare, so the
// unit checked is the receive status.
func (x *rank) sendrecvN(dst, src, tag, n int) {
	t0 := x.Time()
	st := x.SendrecvN(dst, tag, nil, n, src, tag, nil, n)
	x.end("sendrecv", n, t0)
	x.okStatus("sendrecv", st, n)
}

func (x *rank) isend(dst, tag int, data []byte, n int) *mpi.Request {
	t0 := x.Time()
	r := x.IsendN(dst, tag, data, n)
	x.end("isend", n, t0)
	return r
}

func (x *rank) irecv(src, tag int, buf []byte, n int) *mpi.Request {
	t0 := x.Time()
	r := x.IrecvN(src, tag, buf, n)
	x.end("irecv", n, t0)
	return r
}

// waitall completes a window of requests of n bytes each and checks every
// status.
func (x *rank) waitall(reqs []*mpi.Request, n int) {
	t0 := x.Time()
	x.Waitall(reqs)
	x.end("waitall", n*len(reqs), t0)
	for _, r := range reqs {
		x.okStatus("waitall", r.Status(), n)
	}
}

func (x *rank) barrier() {
	t0 := x.Time()
	x.Barrier()
	x.end("barrier", 0, t0)
}

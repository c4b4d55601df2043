package mpi

import (
	"fmt"
	"slices"

	"ib12x/internal/adi"
	"ib12x/internal/core"
)

// One-sided communication (MPI-2 RMA) with active-target synchronization:
// WinCreate / Put / Get / Accumulate / Fence / Free. Inter-node Put and Get
// travel as RDMA operations striped across rails by the scheduling policy —
// the multi-rail one-sided design of the authors' HiPC 2005 companion paper
// — while intra-node targets and Accumulate use message-based emulation, as
// MVAPICH did.

// Win is an exposed RMA window (MPI_Win).
type Win struct {
	c    *Comm
	id   int
	buf  []byte
	n    int
	keys []uint32 // rkey of every rank's window

	outstanding []*Request
	sentCounted []int64 // message-based ops sent per target this epoch
	expected    int64   // cumulative message-based ops expected locally
	freed       bool

	// Fence's count exchange buffers, 8 bytes per rank, reused every epoch.
	sendB, recvB []byte
	// accB encodes accumulate operands, reused every call (accumulate).
	accB []byte
}

// WinCreate collectively exposes buf (length n; nil allowed for synthetic
// windows) on every rank and returns the window handle. All ranks must call
// it with the same sequence of WinCreate/WinFree operations.
func (c *Comm) WinCreate(buf []byte, n int) *Win {
	if buf != nil && len(buf) < n {
		panic("mpi: window buffer shorter than declared size")
	}
	// Window ids are namespaced by the communicator's (unique) matching
	// context so windows of a parent and its Split children never collide
	// on a shared endpoint.
	p := c.Size()
	w := &Win{c: c, id: c.ctxP2P<<20 | c.nextWinID, buf: buf, n: n, sentCounted: make([]int64, p),
		sendB: make([]byte, 8*p), recvB: make([]byte, 8*p)}
	c.nextWinID++
	rkey := c.ep.RegisterWindow(w.id, buf, n)
	// Exchange rkeys so any rank can RDMA into any window.
	mine := make([]byte, 4)
	mine[0], mine[1], mine[2], mine[3] = byte(rkey), byte(rkey>>8), byte(rkey>>16), byte(rkey>>24)
	all := make([]byte, 4*p)
	// The rkeys are protocol metadata: a corrupted one would wedge or crash
	// the run, so the exchange is shielded from payload-corruption plans
	// (liveness-safe chaos by construction; see adi.Shielded).
	c.ep.Shielded(func() { c.Allgather(mine, 4, all) })
	w.keys = make([]uint32, p)
	for r := range w.keys {
		b := all[4*r:]
		w.keys[r] = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	return w
}

// Size reports the window's byte length.
func (w *Win) Size() int { return w.n }

func (w *Win) checkAccess(target, off, n int) {
	if w.freed {
		panic("mpi: access to a freed window")
	}
	if target < 0 || target >= w.c.Size() {
		panic(fmt.Sprintf("mpi: RMA target %d out of range", target))
	}
	if off < 0 || off+n > w.n {
		panic(fmt.Sprintf("mpi: RMA access [%d,%d) outside window of %d bytes", off, off+n, w.n))
	}
}

// Put writes len(data) bytes into target's window at byte offset off. The
// operation completes (locally and remotely) by the end of the epoch's
// Fence; the marker classifies it Blocking so large transfers stripe.
func (w *Win) Put(target, off int, data []byte) { w.PutN(target, off, data, len(data)) }

// PutN is Put with an explicit count and optional (synthetic) payload.
func (w *Win) PutN(target, off int, data []byte, n int) {
	w.checkAccess(target, off, n)
	req, counted := w.c.ep.PutBulk(w.c.world(target), w.id, w.keys[target], off, data, n, core.Blocking)
	if counted {
		w.sentCounted[target]++
	}
	w.track(req)
}

// Get reads len(buf) bytes from target's window at byte offset off.
func (w *Win) Get(target, off int, buf []byte) { w.GetN(target, off, buf, len(buf)) }

// GetN is Get with an explicit count and optional buffer.
func (w *Win) GetN(target, off int, buf []byte, n int) {
	w.checkAccess(target, off, n)
	w.track(w.c.ep.GetBulk(w.c.world(target), w.id, w.keys[target], off, buf, n, core.Blocking))
}

// track keeps a Put or Get request for the epoch's Fence to complete and
// release, or releases it now if it completed at post: no request leaves
// the window.
func (w *Win) track(req *Request) {
	if req.Done() {
		req.Release()
		return
	}
	w.outstanding = append(w.outstanding, req)
}

// AccumulateInt64 combines vals element-wise into target's window starting
// at element offset offElems (the window is treated as an int64 array).
func (w *Win) AccumulateInt64(target, offElems int, vals []int64, op Op) {
	w.accumulate(target, offElems, vals, map[Op]adi.AccOp{Sum: adi.AccSum, Max: adi.AccMax, Min: adi.AccMin}[op])
}

// ReplaceInt64 stores vals at the target (MPI_REPLACE accumulate): unlike
// Put it is always message-based and therefore ordered with other
// accumulates to the same target.
func (w *Win) ReplaceInt64(target, offElems int, vals []int64) {
	w.accumulate(target, offElems, vals, adi.AccReplace)
}

// accumulate sends vals, encoded into the window's reused accB, as one
// message-based accumulate. The ADI layer captures the payload, or applies
// an op to self, before AccumulateSend returns, so accB is free again.
func (w *Win) accumulate(target, offElems int, vals []int64, op adi.AccOp) {
	n := 8 * len(vals)
	off := 8 * offElems
	w.checkAccess(target, off, n)
	w.accB = slices.Grow(w.accB[:0], n)[:n]
	putInt64s(w.accB, vals)
	if w.c.ep.AccumulateSend(w.c.world(target), w.id, off, w.accB, n, op) {
		w.sentCounted[target]++
	}
}

// FetchAddInt64 atomically adds delta to element offElems of the target's
// window and returns the previous value (MPI_Fetch_and_op with MPI_SUM,
// mapped to the HCA's fetch-and-add for inter-node targets). It blocks
// until the old value is back — atomics are synchronous by nature.
func (w *Win) FetchAddInt64(target, offElems int, delta int64) int64 {
	off := 8 * offElems
	w.checkAccess(target, off, 8)
	req := w.c.ep.FetchAtomic(w.c.world(target), w.id, w.keys[target], off, false, uint64(delta), 0)
	w.c.ep.Wait(req)
	old := int64(req.AtomicOld())
	req.Release()
	return old
}

// CompareAndSwapInt64 atomically replaces element offElems of the target's
// window with swap if it equals compare, returning the previous value
// (MPI_Compare_and_swap).
func (w *Win) CompareAndSwapInt64(target, offElems int, compare, swap int64) int64 {
	off := 8 * offElems
	w.checkAccess(target, off, 8)
	req := w.c.ep.FetchAtomic(w.c.world(target), w.id, w.keys[target], off, true, uint64(compare), uint64(swap))
	w.c.ep.Wait(req)
	old := int64(req.AtomicOld())
	req.Release()
	return old
}

// ReadInt64 reads element i of the LOCAL window (load from exposed memory).
func (w *Win) ReadInt64(i int) int64 {
	b := w.buf[8*i:]
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(b[k]) << (8 * k)
	}
	return int64(v)
}

// Fence closes the current RMA epoch (MPI_Win_fence): it blocks until every
// operation issued by this rank has completed at its target and every
// operation targeting this rank has been applied locally, then
// synchronizes all ranks.
func (w *Win) Fence() {
	if w.freed {
		panic("mpi: Fence on a freed window")
	}
	c := w.c
	// 1. Local + remote completion of RDMA ops (an RC ack implies remote
	// placement) and of message-based sends.
	c.ep.WaitAll(w.outstanding)
	for i, req := range w.outstanding {
		req.Release()
		w.outstanding[i] = nil
	}
	w.outstanding = w.outstanding[:0]

	// 2. Message-based ops (accumulates, intra-node puts) complete only
	// when the target applies them: exchange per-target counts and wait
	// for the expected number locally (the MPICH fence scheme).
	for j, v := range w.sentCounted {
		putU64f(w.sendB[8*j:], uint64(v))
		w.sentCounted[j] = 0
	}
	// Shielded: a flipped count would make WaitWindowOps wait forever.
	c.ep.Shielded(func() { c.Alltoall(w.sendB, 8, w.recvB) })
	for j := range w.sentCounted {
		w.expected += int64(getU64f(w.recvB[8*j:]))
	}
	c.ep.WaitWindowOps(w.id, w.expected)

	// 3. Epoch boundary.
	c.Barrier()
}

// Free collectively releases the window.
func (w *Win) Free() {
	w.Fence()
	w.c.ep.UnregisterWindow(w.id)
	w.freed = true
}

func putU64f(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64f(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

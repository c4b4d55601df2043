package adi

import (
	"encoding/binary"

	"ib12x/internal/core"
	"ib12x/internal/ib"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// One-sided (RMA) support, following the multi-rail one-sided design of the
// authors' companion work (Vishnu et al., HiPC 2005): direct RDMA for
// inter-node Put/Get — striped across rails by the scheduling policies —
// and two-sided emulation for intra-node targets and for Accumulate (which
// needs the target CPU to apply the operation), exactly as MVAPICH did.

// AccOp is an accumulate operator applied at the target.
type AccOp int

// Accumulate operators over little-endian int64 elements.
const (
	AccReplace AccOp = iota
	AccSum
	AccMax
	AccMin
)

// winInfo is the endpoint-side state of an exposed memory window.
type winInfo struct {
	buf       []byte
	n         int
	mr        *ib.MR
	processed int64 // message-based ops applied at this target
	w         sim.Waiter
}

// RegisterWindow exposes buf (may be nil for synthetic windows) of n bytes
// as RMA window id and returns the rkey peers use for RDMA access. Window
// ids must be allocated symmetrically across ranks (the mpi layer's
// collective WinCreate guarantees this).
func (ep *Endpoint) RegisterWindow(id int, buf []byte, n int) uint32 {
	if ep.windows == nil {
		ep.windows = make(map[int]*winInfo)
	}
	if _, dup := ep.windows[id]; dup {
		panic("adi: window id already registered")
	}
	// Window creation registers the exposed region up front (collective
	// context, no single peer).
	ep.chargeRegistration(-1, buf, n)
	mr := ep.realm.RegisterMR(buf, n)
	ep.windows[id] = &winInfo{buf: buf, n: n, mr: mr}
	return mr.RKey
}

// UnregisterWindow tears the window down.
func (ep *Endpoint) UnregisterWindow(id int) {
	win, ok := ep.windows[id]
	if !ok {
		return
	}
	ep.realm.DeregisterMR(win.mr)
	delete(ep.windows, id)
}

// WindowProcessed reports how many message-based RMA ops have been applied
// to the local window so far.
func (ep *Endpoint) WindowProcessed(id int) int64 { return ep.windows[id].processed }

// WaitWindowOps blocks until at least `total` message-based ops have been
// applied to the local window (cumulative across epochs).
func (ep *Endpoint) WaitWindowOps(id int, total int64) {
	win := ep.windows[id]
	for win.processed < total {
		if !ep.progressOnce() {
			ep.idle.Wait(ep.proc, "adi: waiting for window ops")
		}
	}
}

// PutBulk writes n bytes into the target's window at byte offset off.
// Inter-node targets take striped RDMA writes per the policy (class is the
// communication-marker input); intra-node targets and self use copy/message
// paths. The returned request completes when remote placement is
// guaranteed. `counted` reports whether the op must be counted toward the
// fence's message-based expectation at the target.
func (ep *Endpoint) PutBulk(peer, winID int, rkey uint32, off int, data []byte, n int, class core.Class) (req *Request, counted bool) {
	checkCount(n)
	req = ep.newRequest()
	req.send, req.peer, req.n = true, peer, n
	if peer == ep.Rank {
		win := ep.windows[winID]
		if win.buf != nil && data != nil {
			copy(win.buf[off:off+n], data[:n])
		}
		req.done = true
		return req, false
	}
	conn := ep.conn(peer)
	if conn.sh != nil {
		env := ep.pool.get()
		env.kind, env.src, env.size, env.winID, env.off = envPut, ep.Rank, n, winID, off
		ep.sendRMAMsg(conn, env, data, n)
		req.done = true
		return req, true
	}
	// RDMA path: plan stripes over retained sub-views of the wrapped source
	// buffer (zero-copy, as in rendezvous); the request completes — and the
	// base reference drops — when all writes ack (ack implies remote
	// placement under RC).
	if ep.integrity == IntegrityVerify {
		ep.charge(ep.checksumTime(n))
	}
	if data != nil {
		req.owner = ep.bufs.WrapTagged(data[:n], "rma-owner")
	}
	ep.chargeRegistration(peer, data, n)
	plan := ep.planBulk(conn, class, n, NoLane)
	ep.postStripes(conn, plan, stripe{kind: stripePut, req: req}, ib.OpRDMAWrite, rkey, off, trace.KindRMA)
	return req, false
}

// GetBulk reads n bytes from the target's window at byte offset off into
// buf. Inter-node targets use striped RDMA reads; intra-node targets a
// request/response message pair.
func (ep *Endpoint) GetBulk(peer, winID int, rkey uint32, off int, buf []byte, n int, class core.Class) *Request {
	checkCount(n)
	req := ep.newRequest()
	req.peer, req.n, req.data = peer, n, buf
	if peer == ep.Rank {
		win := ep.windows[winID]
		if win.buf != nil && buf != nil {
			copy(buf[:n], win.buf[off:off+n])
		}
		req.done = true
		return req
	}
	conn := ep.conn(peer)
	if conn.sh != nil {
		env := ep.pool.get()
		env.kind, env.src, env.size, env.winID, env.off, env.rreq = envGetReq, ep.Rank, n, winID, off, req
		ep.sendRMAMsg(conn, env, nil, 0)
		return req
	}
	ep.chargeRegistration(peer, buf, n)
	plan := ep.planBulk(conn, class, n, NoLane)
	ep.postStripes(conn, plan, stripe{kind: stripeGet, req: req}, ib.OpRDMARead, rkey, off, trace.KindRMA)
	return req
}

// AccumulateSend applies op element-wise (int64 lanes) at the target's
// window. Always message-based: the target CPU performs the combine during
// its progress. Returns whether the op counts toward fence expectations.
func (ep *Endpoint) AccumulateSend(peer, winID int, off int, data []byte, n int, op AccOp) bool {
	checkCount(n)
	if peer == ep.Rank {
		applyAccumulate(ep.windows[winID], off, data, n, op)
		return false // self ops apply synchronously; not fence-counted
	}
	conn := ep.conn(peer)
	env := ep.pool.get()
	env.kind, env.src, env.size, env.winID, env.off, env.accOp = envAccum, ep.Rank, n, winID, off, op
	ep.sendRMAMsg(conn, env, data, n)
	return true
}

// FetchAtomic performs an 8-byte remote read-modify-write at the target's
// window offset: fetch-and-add (cas=false; arg1 = addend) or
// compare-and-swap (cas=true; arg1 = comparand, arg2 = replacement). The
// returned request completes with the pre-operation value. Inter-node
// targets use the HCA's atomic engine; intra-node and self use the
// message path, which the event serialization makes equally atomic.
func (ep *Endpoint) FetchAtomic(peer, winID int, rkey uint32, off int, cas bool, arg1, arg2 uint64) *Request {
	req := ep.newRequest()
	req.peer, req.n = peer, 8
	if peer == ep.Rank {
		req.atomicOld = applyAtomic(ep.windows[winID], off, cas, arg1, arg2)
		req.done = true
		return req
	}
	conn := ep.conn(peer)
	if conn.sh != nil {
		env := ep.pool.get()
		env.kind, env.src, env.size, env.winID, env.off = envAtomicReq, ep.Rank, 8, winID, off
		env.atomicCAS, env.arg1, env.arg2, env.rreq = cas, arg1, arg2, req
		ep.sendRMAMsg(conn, env, nil, 0)
		return req
	}
	op := ib.OpAtomicFAdd
	if cas {
		op = ib.OpAtomicCAS
	}
	ep.charge(ep.m.CPUPostWQE + ep.m.DoorbellTime)
	wrid := ep.newStripe(stripe{kind: stripeAtomic, req: req})
	ep.post(conn, conn.ctrlRail(), ib.SendWR{
		WRID: wrid, Op: op, N: 8,
		RKey: rkey, RemoteOff: off,
		CompareAdd: arg1, Swap: arg2,
		Signaled: true,
	}, nil)
	return req
}

// applyAtomic executes the read-modify-write on a local window.
func applyAtomic(win *winInfo, off int, cas bool, arg1, arg2 uint64) uint64 {
	if win.buf == nil {
		return 0
	}
	old := binary.LittleEndian.Uint64(win.buf[off:])
	next := old + arg1
	if cas {
		next = old
		if old == arg1 {
			next = arg2
		}
	}
	binary.LittleEndian.PutUint64(win.buf[off:], next)
	return old
}

// sendRMAMsg ships a message-based RMA envelope (put/accumulate/get
// request) with a captured payload view over the conn's transport. Over
// shared memory the view rides the channel (attached to the envelope at the
// receiver); over rails it rides the envelope directly. Either way the
// receiver's pool.put releases the one reference.
func (ep *Endpoint) sendRMAMsg(conn *Conn, env *envelope, data []byte, n int) {
	pay := ep.capture(data, n, "rma-msg")
	if data != nil {
		ep.charge(sim.TransferTime(int64(n), ep.m.EagerCopyRate))
	}
	if conn.sh != nil {
		ep.shmemSend(conn, env, pay, n)
		return
	}
	env.pay, env.seq = pay, conn.sendSeq
	conn.sendSeq++
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	rail := ep.pickRail(&conn.rcChannel, core.NonBlocking, n, NoLane)
	ep.sendEnvelope(conn, rail, env, &ib.SendWR{N: n + ep.m.MPIHeaderBytes}, nil)
	ep.stats.EagerSent++
}

// handleRMA processes an inbound sequenced RMA envelope at the target.
func (ep *Endpoint) handleRMA(env *envelope) {
	win, ok := ep.windows[env.winID]
	if !ok {
		panic("adi: RMA op for unknown window")
	}
	switch env.kind {
	case envPut, envAccum:
		// A put is an accumulate under AccReplace, its accOp's zero value.
		applyAccumulate(win, env.off, env.pay.Bytes(), env.size, env.accOp)
		ep.charge(sim.TransferTime(int64(env.size), ep.m.EagerCopyRate))
		win.processed++
		win.w.WakeAll()
	case envGetReq:
		// Reply with the requested bytes; the requester's request pointer
		// rides along.
		var payload []byte
		if win.buf != nil {
			payload = win.buf[env.off : env.off+env.size]
		}
		conn := ep.conns[env.src]
		resp := ep.pool.get()
		resp.kind, resp.src, resp.size, resp.rreq = envGetResp, ep.Rank, env.size, env.rreq
		ep.sendRMAMsg(conn, resp, payload, env.size)
	case envAtomicReq:
		old := applyAtomic(win, env.off, env.atomicCAS, env.arg1, env.arg2)
		conn := ep.conns[env.src]
		resp := ep.pool.get()
		resp.kind, resp.src, resp.size, resp.rreq, resp.old = envAtomicResp, ep.Rank, 8, env.rreq, old
		ep.sendRMAMsg(conn, resp, nil, 0)
	}
}

// handleAtomicResp completes a message-based atomic at the requester.
func (ep *Endpoint) handleAtomicResp(env *envelope) {
	req := env.rreq
	req.atomicOld = env.old
	req.done = true
}

// handleGetResp completes a message-based Get at the requester.
func (ep *Endpoint) handleGetResp(env *envelope) {
	req := env.rreq
	if req.data != nil && !env.pay.Zero() {
		copy(req.data[:env.size], env.pay.Bytes()[:env.size])
	}
	ep.charge(sim.TransferTime(int64(env.size), ep.m.EagerCopyRate))
	req.done = true
}

// applyAccumulate combines data into the window at byte offset off over
// little-endian int64 lanes (AccReplace copies bytes).
func applyAccumulate(win *winInfo, off int, data []byte, n int, op AccOp) {
	if win.buf == nil || data == nil {
		return
	}
	dst := win.buf[off : off+n]
	if op == AccReplace {
		copy(dst, data[:n])
		return
	}
	for i := 0; i+8 <= n; i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(data[i:]))
		var r int64
		switch op {
		case AccSum:
			r = a + b
		case AccMax:
			r = a
			if b > a {
				r = b
			}
		case AccMin:
			r = a
			if b < a {
				r = b
			}
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}

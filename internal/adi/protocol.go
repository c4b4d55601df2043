package adi

import (
	"ib12x/internal/buf"
	"ib12x/internal/ib"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// ---- eager protocol (size < RendezvousThreshold) ----

// sendEager captures the payload into a pooled view — the one copy of the
// eager path — and ships it whole on the rail the policy picks. The request
// completes immediately (buffered send semantics, as in MVAPICH). A message
// the connection's eager ring admits (ring.go) is written into a ring slot;
// any other — no ring, ring full, oversized, or torn down — takes the
// send/recv window.
func (ep *Endpoint) sendEager(conn *Conn, req *Request) {
	c := &conn.rcChannel
	env := ep.pool.get()
	env.kind, env.src, env.tag, env.ctxID = envEager, ep.Rank, req.tag, req.ctxID
	env.size, env.seq, env.noCorrupt = req.n, conn.sendSeq, req.noCorrupt
	conn.sendSeq++
	wr, rail := ib.SendWR{N: req.n + ep.m.MPIHeaderBytes}, -1
	env.ring = ep.ringAdmit(c, req, &wr)
	if req.data != nil {
		env.pay = ep.capture(req.data, req.n, "eager")
		ep.charge(sim.TransferTime(int64(req.n), ep.m.EagerCopyRate))
	}
	// The order trap (DESIGN.md §21): a ring slot is aimed before the
	// capture-time checksum charge, the send/recv rail picked after it.
	// Under IntegrityVerify the charge is a sleep, during which the
	// reliability layer can mark a rail dead.
	if env.ring {
		rail = ep.pickRail(c, req.class, req.n, req.lane)
		ep.ringSlot(c, &wr, rail, req.peer)
	}
	ep.stampPayloadCRC(env, req.n)
	if rail < 0 {
		rail = ep.pickRail(c, req.class, req.n, req.lane)
	}
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.trace(trace.KindEager, req.peer, req.n, rail)
	// Buffered-send semantics: the request completes as soon as the
	// descriptor reaches the hardware. If the send queue is full or the
	// credit window is empty, it completes when the stall drains (so a Wait
	// keeps progress alive).
	ep.sendEnvelope(conn, rail, env, &wr, req)
	ep.stats.EagerSent++
}

// deliverEager completes a matched receive from an eager envelope. With
// verification off a carried taint materializes here, in the receiver's own
// copy: a mangled wire header mis-reports the length (seeded truncation — the
// matching fields are VCRC-protected, so liveness holds) and a bit flip XORs
// one byte of the destination buffer. The sender's captured view is never
// touched. With IntegrityVerify armed tainted envelopes cannot reach here.
func (ep *Endpoint) deliverEager(req *Request, env *envelope) {
	n := env.size
	if env.hdrTaint && n > 0 {
		n -= 1 + env.flipOff%n
	}
	corrupt := env.hdrTaint || env.flipMask != 0
	if n > req.n {
		n = req.n
		req.err = ErrTruncated
	}
	if req.data != nil && !env.pay.Zero() {
		copy(req.data[:n], env.pay.Bytes()[:n])
		if off := env.flipOff; env.flipMask != 0 && n > 0 {
			if off >= n {
				off = n - 1
			}
			req.data[off] ^= env.flipMask
		}
	}
	ep.verifyEagerCRC(env)
	if corrupt {
		ep.corruptDelivered(env.src, n)
	}
	rate := ep.m.EagerCopyRate
	if env.shm {
		rate = ep.m.ShmemRate
	}
	ep.charge(sim.TransferTime(int64(n), rate))
	req.peer, req.tag, req.n = env.src, env.tag, n
	req.done = true
	ep.trace(trace.KindDeliver, env.src, n, -1)
}

// ---- rendezvous protocol (RTS / CTS / RDMA write / FIN) ----

// sendRTS begins a rendezvous transfer: a control message announces the
// send. Under RndvWrite the data waits for the receiver's CTS; under
// RndvRead the RTS itself carries the sender's buffer key and class so the
// receiver can pull.
func (ep *Endpoint) sendRTS(conn *Conn, req *Request) {
	env := ep.pool.get()
	env.kind, env.src, env.tag, env.ctxID = envRTS, ep.Rank, req.tag, req.ctxID
	env.size, env.seq, env.sreq, env.class = req.n, conn.sendSeq, req, req.class
	env.lane = req.lane
	conn.sendSeq++
	// Zero-copy: the rendezvous path never captures the payload — the
	// request wraps the user's buffer and holds that reference until the
	// peer confirms placement (FIN under RndvWrite, DONE under RndvRead).
	if ep.integrity == IntegrityVerify {
		// The capture-time checksum pass is charged whether or not the run
		// carries real bytes: synthetic workloads model the same wire traffic.
		ep.charge(ep.checksumTime(req.n))
	}
	if req.data != nil {
		req.owner = ep.bufs.WrapTagged(req.data[:req.n], "rndv-owner")
		if ep.integrity != IntegrityOff {
			// Whole-message checksum, computed over the source buffer before
			// any stripe leaves the host and carried to the receiver in the
			// RTS; the receiver re-checks the assembled buffer at FIN/DONE.
			env.crc, env.hasCRC = buf.Sum(req.data[:req.n]), true
		}
	}
	if ep.rndv == RndvRead {
		// RGET exposes the sender's buffer in the RTS, so the sender pays
		// the registration here, before the key leaves the host.
		ep.chargeRegistration(req.peer, req.data, req.n)
		mr := ep.realm.RegisterMR(req.data, req.n)
		req.mrKey = mr.RKey
		env.rkey = mr.RKey
	}
	conn.sched.Outstanding++
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.trace(trace.KindRTS, req.peer, req.n, -1)
	ep.sendCtrl(conn, env)
	ep.stats.RendezvousSent++
}

// matchRTS accepts a matched RTS — the transfer is the message truncated
// to the receive — and routes it to the rendezvous engine in force.
func (ep *Endpoint) matchRTS(req *Request, env *envelope) {
	xfer := env.size
	if xfer > req.n {
		xfer = req.n
		req.err = ErrTruncated
	}
	req.peer, req.tag, req.n = env.src, env.tag, xfer
	if env.hasCRC {
		req.crc, req.crcSet = env.crc, true
	}
	if ep.rndv == RndvRead {
		ep.startRead(req, env, xfer)
		return
	}
	ep.sendCTS(req, env, xfer)
}

// startRead runs at the receiver under RndvRead: it pulls the sender's
// buffer with RDMA reads striped per the policy (using the sender's marker
// class, carried in the RTS) and then releases the sender with a DONE
// control message.
func (ep *Endpoint) startRead(req *Request, env *envelope, xfer int) {
	conn := ep.conns[env.src]
	// The receiver's pull targets its own buffer: registration is charged
	// before any read posts. A lane-hinted transfer reads on the sender's
	// lane.
	ep.chargeRegistration(env.src, req.data, xfer)
	plan := ep.planBulk(conn, env.class, xfer, env.lane)
	ep.postStripes(conn, plan, stripe{kind: stripeRndvRead, req: req, peer: env.sreq, conn: conn},
		ib.OpRDMARead, env.rkey, 0, trace.KindStripeRead)
}

// finishRead completes the receive and releases the sender.
func (ep *Endpoint) finishRead(conn *Conn, req, sreq *Request) {
	ep.verifyAssembled(req)
	done := ep.pool.get()
	done.kind, done.src, done.sreq = envDone, ep.Rank, sreq
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.sendCtrl(conn, done)
	req.done = true
}

// handleDone runs at the sender under RndvRead: the receiver has pulled
// everything, so the registration and the buffer reference are released and
// the send completes.
func (ep *Endpoint) handleDone(env *envelope) {
	req := env.sreq
	ep.conns[env.src].sched.Outstanding--
	ep.charge(ep.m.CPUHeaderProc)
	if mr, ok := ep.realm.LookupMR(req.mrKey); ok {
		ep.realm.DeregisterMR(mr)
	}
	req.owner.Release()
	req.owner = buf.View{}
	req.done = true
}

// sendCTS runs at the receiver when an RTS matches a posted receive: it
// registers the destination buffer and grants the sender an RDMA target.
func (ep *Endpoint) sendCTS(req *Request, env *envelope, xfer int) {
	// The destination buffer becomes an RDMA target: the receiver pays the
	// pin-down charge before granting the key.
	ep.chargeRegistration(env.src, req.data, xfer)
	mr := ep.realm.RegisterMR(req.data, xfer)
	req.mrKey = mr.RKey
	cts := ep.pool.get()
	cts.kind, cts.src, cts.sreq, cts.rreq, cts.rkey, cts.xfer = envCTS, ep.Rank, env.sreq, req, mr.RKey, xfer
	conn := ep.conns[env.src]
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.trace(trace.KindCTS, env.src, xfer, -1)
	ep.sendCtrl(conn, cts)
}

// handleCTS runs at the sender: the communication scheduler consults the
// policy — with the marker's class — and issues the RDMA write stripes.
// Each stripe is a retained sub-view of the request's wrapped user buffer:
// no stripe copy exists anywhere, and a stripe retransmitted after a rail
// death still holds its own live reference on the source bytes.
func (ep *Endpoint) handleCTS(env *envelope) {
	sreq := env.sreq
	conn := ep.conns[env.src]
	ep.charge(ep.m.CPUHeaderProc)
	// Every stripe of this message reads the source buffer: the whole
	// region's first touch pays its registration before any WR posts.
	ep.chargeRegistration(env.src, sreq.data, env.xfer)
	plan := ep.planBulk(conn, sreq.class, env.xfer, sreq.lane)
	ep.postStripes(conn, plan, stripe{kind: stripeRndvWrite, req: sreq, peer: env.rreq, conn: conn},
		ib.OpRDMAWrite, env.rkey, 0, trace.KindStripeWrite)
}

// finishRendezvous runs at the sender when the last stripe completes: the
// FIN control message releases the receiver, the buffer reference is
// dropped, and the send request is done.
func (ep *Endpoint) finishRendezvous(conn *Conn, sreq, rreq *Request) {
	fin := ep.pool.get()
	fin.kind, fin.src, fin.rreq = envFIN, ep.Rank, rreq
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.sendCtrl(conn, fin)
	ep.trace(trace.KindFIN, conn.peer, 0, -1)
	conn.sched.Outstanding--
	sreq.owner.Release()
	sreq.owner = buf.View{}
	sreq.done = true
}

// handleFIN runs at the receiver: data is in place, the buffer registration
// is released, the receive completes.
func (ep *Endpoint) handleFIN(env *envelope) {
	req := env.rreq
	ep.charge(ep.m.CPUHeaderProc)
	ep.verifyAssembled(req)
	if mr, ok := ep.realm.LookupMR(req.mrKey); ok {
		ep.realm.DeregisterMR(mr)
	}
	req.done = true
}

// ---- shared-memory path ----

// sendShmem ships any size message over the intra-node channel: the send
// completes when the copy into the shared buffer does. The capture copy into
// a pooled view is that copy — its cost is the link's bandwidth reservation,
// and the view travels through the channel to the receiving endpoint, which
// releases it after delivery.
func (ep *Endpoint) sendShmem(conn *Conn, req *Request) {
	env := ep.pool.get()
	env.kind, env.src, env.tag, env.ctxID, env.size = envEager, ep.Rank, req.tag, req.ctxID, req.n
	ep.shmemSend(conn, env, ep.capture(req.data, req.n, "shmem"), req.n)
	ep.trace(trace.KindShmem, req.peer, req.n, -1)
	req.done = true
}

// shmemSend sequences an envelope onto the connection's shared-memory link
// with its n-byte payload view pay (which the receiving endpoint releases
// after delivery) and blocks the rank until the copy into the shared buffer
// completes.
func (ep *Endpoint) shmemSend(conn *Conn, env *envelope, pay buf.View, n int) {
	env.seq, env.shm = conn.sendSeq, true
	conn.sendSeq++
	senderDone := conn.sh.Send(pay, n, env)
	if d := senderDone - ep.eng.Now(); d > 0 {
		ep.proc.Sleep(d)
	}
	ep.stats.ShmemSent++
}

package ib

import (
	"encoding/binary"

	"ib12x/internal/buf"
	"ib12x/internal/hca"
	"ib12x/internal/sim"
)

// SendWR is a send-side work request (descriptor). Data may be nil for a
// synthetic payload of N bytes. For OpRDMARead, Data is the LOCAL
// destination buffer and RKey/RemoteOff name the remote source region.
type SendWR struct {
	WRID     uint64
	Op       Opcode // OpSend, OpRDMAWrite or OpRDMARead
	Data     []byte
	N        int
	Signaled bool

	// RDMA write targets.
	RKey      uint32
	RemoteOff int

	// Immediate data (Send or RDMA-write-with-immediate); consumes a
	// receive WR at the responder and surfaces in its CQE.
	Imm    uint64
	HasImm bool

	// Atomic operands: CompareAdd is the addend (FAdd) or the comparand
	// (CAS); Swap is the CAS replacement value.
	CompareAdd uint64
	Swap       uint64

	// Ctx is an opaque protocol object delivered in the responder's CQE
	// (simulation stand-in for header bytes in a bounce buffer).
	Ctx any

	// Payload marks a descriptor that carries MPI payload bytes: eager
	// envelopes, ring slots, rendezvous and one-sided bulk stripes. Only
	// payload descriptors consult the port's corruption plan and the
	// ICRC-style verification; control traffic (credit updates, probes,
	// RTS/CTS/FIN, atomics) is modeled as protected by the transport's
	// VCRC and is never corrupted, which keeps corruption plans
	// liveness-safe. Ring further marks a payload descriptor that lands in
	// an RDMA eager ring slot — the only torn-write candidates.
	Payload bool
	Ring    bool

	// NoCorrupt exempts a retransmission from the injection counters: a
	// retry is a different wire traversal, so the NACK-recovery loop
	// converges even under an every-descriptor corruption plan (a
	// persistently bad rail is modeled by the counter striking fresh
	// traffic until the health layer quarantines it).
	NoCorrupt bool
}

// RecvWR is a receive-side work request. Buf may be nil to discard payload.
type RecvWR struct {
	WRID uint64
	Buf  []byte
	N    int
}

// message is an in-flight payload headed for a receive queue.
type message struct {
	qp     *QP // destination QP
	data   []byte
	n      int
	imm    uint64
	hasImm bool
	ctx    any

	// Corruption taint carried to the receive completion (see CQE). The
	// corrupt image is never materialized in sender-owned memory — the
	// consumer applies the flip to its own receive-side copy.
	flipOff  int
	flipMask byte
	hdr      bool
	tornAt   sim.Time
}

// recvRun is n consecutive posts of one receive WR.
type recvRun struct {
	wr RecvWR
	n  int
}

// blank reports whether wr is the zero RecvWR: no identifier, no buffer, no
// length — the header-only prepost a bounce-buffered eager channel keeps.
func (wr *RecvWR) blank() bool { return wr.WRID == 0 && wr.Buf == nil && wr.N == 0 }

// recvPool is the receive-buffer pool behind a QP or an SRQ: posted WRs plus
// messages that arrived before a buffer was available. Posted WRs are kept
// as runs in post order, and a blank WR posted behind a blank run joins it,
// so a pool of k blank preposts replenished one by one is one entry, not k.
type recvPool struct {
	runs    sim.Ring[recvRun]
	posted  int // receive WRs across all runs
	pending sim.Ring[message]
}

// post appends n copies of wr.
func (rp *recvPool) post(wr RecvWR, n int) {
	if n <= 0 {
		return
	}
	if rp.runs.Len() > 0 && wr.blank() && rp.runs.Back().wr.blank() {
		rp.runs.Back().n += n
	} else {
		rp.runs.Push(recvRun{wr, n})
	}
	rp.posted += n
	rp.drain()
}

// take consumes the oldest posted WR; the pool must not be empty.
func (rp *recvPool) take() RecvWR {
	head := rp.runs.Front()
	wr := head.wr
	if head.n--; head.n == 0 {
		rp.runs.Pop()
	}
	rp.posted--
	return wr
}

func (rp *recvPool) drain() {
	for rp.pending.Len() > 0 && rp.posted > 0 {
		deliver(rp.pending.Pop(), rp.take())
	}
}

func (rp *recvPool) arrive(msg message) {
	if rp.posted > 0 {
		deliver(msg, rp.take())
		return
	}
	msg.qp.Port.RnrWaits++
	rp.pending.Push(msg)
}

func deliver(msg message, wr RecvWR) {
	if wr.Buf != nil && msg.data != nil {
		k := min(wr.N, len(msg.data))
		copy(wr.Buf[:k], msg.data[:k])
	}
	msg.qp.CQ.push(CQE{
		QPN:    msg.qp.QPN,
		WRID:   wr.WRID,
		Op:     OpRecv,
		Status: StatusSuccess,
		Bytes:  msg.n,
		Imm:    msg.imm,
		HasImm: msg.hasImm,
		Ctx:    msg.ctx,
		Data:   msg.data,

		FlipOff:  msg.flipOff,
		FlipMask: msg.flipMask,
		HdrTaint: msg.hdr,
		TornAt:   msg.tornAt,
	})
}

// SRQ is a shared receive queue: several QPs draw receive buffers from one
// pool, the standard MVAPICH arrangement for eager traffic at scale.
type SRQ struct {
	realm *Realm
	pool  recvPool
}

// NewSRQ creates a shared receive queue. Its pool starts with room for one
// run: blank receives posted back to back merge into one counted run
// (recvPool.post), so a pool of header-only preposts never needs more.
func (r *Realm) NewSRQ() *SRQ {
	s := &SRQ{realm: r}
	s.pool.runs.Reserve(1)
	return s
}

// PostRecv adds a receive buffer to the shared pool.
func (s *SRQ) PostRecv(wr RecvWR) { s.PostRecvN(wr, 1) }

// PostRecvN adds n copies of wr to the shared pool in one call, the way an
// endpoint preposts its pool of header-only receives.
func (s *SRQ) PostRecvN(wr RecvWR, n int) {
	s.realm.stats.RecvsPosted += int64(max(n, 0))
	s.pool.post(wr, n)
}

// Posted reports the number of unconsumed receive WRs in the pool.
func (s *SRQ) Posted() int { return s.pool.posted }

// QPConfig configures queue pair creation.
type QPConfig struct {
	Port    *hca.Port
	CQ      *CQ
	SQDepth int  // max outstanding send WRs; 0 means 128
	SRQ     *SRQ // if set, receives come from the shared pool
}

// QP is a Reliable Connection queue pair. Descriptors on its send queue
// execute strictly in order (so a lone QP drives at most one send engine at
// a time), and every descriptor is acknowledged by the responder — the two
// hardware facts the paper's scheduling-policy analysis rests on.
type QP struct {
	QPN  int
	Port *hca.Port
	CQ   *CQ
	SRQ  *SRQ

	realm    *Realm
	remote   *QP
	flow     hca.Flow  // staged transmit pipeline toward the peer (Connect)
	respFlow *hca.Flow // responder resources for RDMA-read responses (RespFlow)
	respSeq  uint64    // respFlow's ordinal on the peer's port

	// outstanding, sqDepth and epoch are 32-bit, and the receive queue
	// that only a QP without an SRQ uses is out of line: adi builds a
	// pair's QPs in blocks, and at 152 bytes (TestQPSize) a rail's two QPs
	// fit the 320-byte size class and a 4-rail pair's eight QPs plus the
	// 8-byte malloc header the 1 280-byte class.
	outstanding int32
	sqDepth     int32     // max outstanding send WRs
	rq          *recvPool // own receive queue, built on first use; a QP bound to an SRQ has none

	// Fault-injection state: down rejects new posts, and epoch stamps every
	// in-flight descriptor so a failure can flush exactly the descriptors
	// that were in the air when it struck.
	down  bool
	epoch uint32
}

// SetDown transitions the QP into the error state: new posts fail with
// ErrQPDown, and descriptors currently in flight are flushed — those whose
// remote effect has not yet happened complete with StatusFlushErr at their
// originally booked completion time; those already effected at the peer
// complete successfully (exactly-once).
func (q *QP) SetDown() {
	if !q.down {
		q.down = true
		q.epoch++
	}
}

// SetUp returns a downed QP to service. In-flight descriptors from before
// the failure stay flushed (their epoch is stale).
func (q *QP) SetUp() { q.down = false }

// IsDown reports whether the QP is in the error state.
func (q *QP) IsDown() bool { return q.down }

// lost reports whether a descriptor stamped with epoch e was caught by a
// failure: the QP is still down, or a down/up cycle happened since.
func (q *QP) lost(e uint32) bool { return q.down || q.epoch != e }

// NewQP creates a queue pair.
func (r *Realm) NewQP(cfg QPConfig) *QP {
	q := new(QP)
	r.InitQP(q, cfg)
	return q
}

// InitQP is NewQP in place: it makes *q a fresh queue pair under the
// realm's next QPN, so a caller wiring many QPs at once can hold them in
// one block. The QP must not move afterwards (its peer and its flow's
// in-flight work point at it).
func (r *Realm) InitQP(q *QP, cfg QPConfig) { r.InitQPAt(q, cfg, r.ReserveQPNs(1)) }

// ReserveQPNs sets aside n consecutive QPNs of the realm's counter and
// returns the first, so a caller that builds the QPs later, or out of
// order, gives each the number an in-order build would have.
func (r *Realm) ReserveQPNs(n int) int {
	r.qpn += n
	return r.qpn - n + 1
}

// InitQPAt is InitQP under a QPN the caller reserved with ReserveQPNs.
func (r *Realm) InitQPAt(q *QP, cfg QPConfig, qpn int) {
	if cfg.Port == nil || cfg.CQ == nil {
		panic("ib: NewQP requires a Port and a CQ")
	}
	depth := cfg.SQDepth
	if depth == 0 {
		depth = 128
	}
	*q = QP{QPN: qpn, Port: cfg.Port, CQ: cfg.CQ, SRQ: cfg.SRQ, realm: r, sqDepth: int32(depth)}
}

// Connect pairs two QPs into a reliable connection. Both must be idle. Each
// port hands out its next two flow ordinals: the first to its QP's transmit
// flow, the second to the peer's responder flow it hosts.
func Connect(a, b *QP) error {
	return ConnectAt(a, b, a.Port.ReserveFlows(2), b.Port.ReserveFlows(2))
}

// ConnectAt is Connect under caller-chosen flow ordinals: a's transmit flow
// gets seqA on a's port and b's responder flow seqA+1 there; b's transmit
// flow gets seqB on b's port and a's responder flow seqB+1. Responder flows
// are built on the first RDMA read or atomic (RespFlow).
func ConnectAt(a, b *QP, seqA, seqB uint64) error {
	if a.remote != nil || b.remote != nil {
		return ErrNotConnected // already wired elsewhere
	}
	a.remote = b
	b.remote = a
	a.Port.InitFlowAt(&a.flow, a.realm.Eng, b.Port, seqA)
	b.Port.InitFlowAt(&b.flow, b.realm.Eng, a.Port, seqB)
	a.respSeq = seqB + 1
	b.respSeq = seqA + 1
	return nil
}

// Flow returns the QP's transmit flow (nil before Connect).
func (q *QP) Flow() *hca.Flow {
	if q.remote == nil {
		return nil
	}
	return &q.flow
}

// RespFlow returns the flow that carries this QP's RDMA-read and atomic
// responses from the peer's port, building it on first use. RDMA-read
// responses are generated by the peer's responder hardware: they share its
// engines and link but not its send-queue ordering.
func (q *QP) RespFlow() *hca.Flow {
	if q.respFlow == nil {
		q.respFlow = q.remote.Port.NewFlowAt(q.realm.Eng, q.Port, q.respSeq)
	}
	return q.respFlow
}

// Connected reports whether the QP has a peer.
func (q *QP) Connected() bool { return q.remote != nil }

// Remote returns the peer QP, or nil.
func (q *QP) Remote() *QP { return q.remote }

// Outstanding reports send WRs posted but not yet completed (acked).
func (q *QP) Outstanding() int { return int(q.outstanding) }

// PostRecv posts a receive buffer on the QP's own receive queue. QPs bound
// to an SRQ must post through the SRQ instead.
func (q *QP) PostRecv(wr RecvWR) error {
	if q.SRQ != nil {
		return ErrBadWR
	}
	q.realm.stats.RecvsPosted++
	q.recvQueue().post(wr, 1)
	return nil
}

// PostedRecvs reports unconsumed receive WRs on the QP's own queue.
func (q *QP) PostedRecvs() int {
	if q.rq == nil {
		return 0
	}
	return q.rq.posted
}

// recvQueue returns the QP's own receive queue, building it on first use.
func (q *QP) recvQueue() *recvPool {
	if q.rq == nil {
		q.rq = new(recvPool)
	}
	return q.rq
}

// PostSend posts a send-side descriptor. The simulated hardware books the
// full transfer pipeline immediately (reservations are monotonic, so
// contention still emerges); completion and delivery events fire at the
// booked instants. RDMA targets are validated synchronously — a convenience
// deviation from real verbs, which would surface an asynchronous error CQE.
func (q *QP) PostSend(wr SendWR) error {
	if q.remote == nil {
		return ErrNotConnected
	}
	if q.down {
		return ErrQPDown
	}
	if q.outstanding >= q.sqDepth {
		return ErrSQFull
	}
	// N is the wire payload size; Data may be shorter (protocol headers
	// account for the difference) but never longer.
	if wr.N < 0 || len(wr.Data) > wr.N {
		return ErrBadWR
	}

	switch wr.Op {
	case OpSend:
		q.realm.stats.SendsPosted++
	case OpRDMAWrite, OpRDMARead:
		mr, ok := q.realm.LookupMR(wr.RKey)
		if !ok {
			return ErrBadRKey
		}
		if wr.RemoteOff < 0 || wr.RemoteOff+wr.N > mr.N {
			return ErrMRBounds
		}
		if wr.Op == OpRDMARead {
			q.realm.stats.ReadsPosted++
			q.realm.stats.BytesRead += int64(wr.N)
			q.outstanding++
			q.postRead(wr)
			return nil
		}
		q.realm.stats.WritesPosted++
	case OpAtomicFAdd, OpAtomicCAS:
		mr, ok := q.realm.LookupMR(wr.RKey)
		if !ok {
			return ErrBadRKey
		}
		if wr.RemoteOff < 0 || wr.RemoteOff%8 != 0 || wr.RemoteOff+8 > mr.N {
			return ErrMRBounds
		}
		q.realm.stats.AtomicsPosted++
		q.outstanding++
		q.postAtomic(wr)
		return nil
	default:
		return ErrBadWR
	}
	q.realm.stats.BytesSent += int64(wr.N)
	q.outstanding++

	o := q.realm.ops.Get()
	o.q, o.epoch, o.op = q, q.epoch, wr.Op
	o.data, o.n, o.off = wr.Data, wr.N, wr.RemoteOff
	o.imm, o.hasImm, o.ctx = wr.Imm, wr.HasImm, wr.Ctx
	o.rkey = wr.RKey
	o.wrid, o.signaled = wr.WRID, wr.Signaled
	if wr.Payload && !wr.NoCorrupt {
		o.stampCorrupt(q.Port.CorruptNext(wr.Ring, wr.Ctx != nil))
		if q.realm.integrity && o.rejected() && len(o.data) > 0 {
			// Only verifyTaint reads the checksum, and only on a descriptor
			// the armed receiving HCA rejects: take it here, for that one.
			o.crc = buf.Sum(o.data)
		}
	}
	q.flow.SendCtx(wr.N, o, opDelivered, opAcked)
	return nil
}

// wrOp is the pooled per-descriptor pipeline state: everything the delivery
// and completion stages need, carried through the HCA's ctx slot so posting
// a WR allocates nothing in steady state. The seed implementation captured
// all of this in two closures per post — the second-largest allocation site
// of the benchmark figures.
type wrOp struct {
	q        *QP
	epoch    uint32
	effected bool // remote effect happened before any failure
	op       Opcode

	// Payload view: data aliases the sender-owned backing array (an adi
	// envelope's pooled capture or the user's rendezvous buffer); for
	// OpRDMARead it is instead the LOCAL destination. No stage copies it
	// except the final placement into the target MR / destination buffer.
	data []byte
	n    int
	off  int

	imm    uint64
	hasImm bool
	ctx    any

	// rkey names the remote region of an RDMA write, read or atomic. It is
	// resolved at placement (region), not at post, so a WR in flight when
	// its region is deregistered places nothing (accessErr) rather than
	// landing in whatever region reuses the MR struct.
	rkey      uint32
	accessErr bool

	wrid     uint64
	signaled bool

	// Atomic operands and result.
	operand, swap, old uint64

	// Integrity state: the checksum of the payload at post (only on a
	// descriptor an armed receiver rejects; zero otherwise), the
	// corruption taint the port's plan assigned at post, and the verdict of
	// the receiving HCA's check. integrityFail is written at delivery and
	// read at ack — the same causal hand-off as effected.
	crc           uint32
	flipOff       int
	flipMask      byte
	hdrTaint      bool
	torn          bool
	integrityFail bool
}

// stampCorrupt derives the descriptor's taint from the port's plan draw.
// A flip picks one seeded byte and bit of the payload; a torn ring slot
// additionally pre-computes the stale-tail image (last payload byte) that a
// disarmed receiver consumes; a header fault carries the raw draw for the
// receive side's seeded length mangling.
func (o *wrOp) stampCorrupt(c hca.Corrupt) {
	switch {
	case c.Flip:
		if len(o.data) > 0 {
			o.flipOff = int(c.Rnd % uint64(len(o.data)))
		}
		o.flipMask = 1 << ((c.Rnd >> 8) % 8)
	case c.Torn:
		o.torn = true
		if len(o.data) > 0 {
			o.flipOff = len(o.data) - 1
		}
		o.flipMask = 1 << ((c.Rnd >> 8) % 8)
	case c.Hdr:
		o.hdrTaint = true
		o.flipOff = int(c.Rnd & 0xFFFF)
	}
}

// rejected reports whether an armed receiving HCA rejects the descriptor's
// image: it carries a flip or a header fault, and is not a torn ring slot
// (whose bytes are late, not wrong).
func (o *wrOp) rejected() bool {
	return !o.torn && (o.flipMask != 0 || o.hdrTaint)
}

// verifyTaint is the receiving-HCA check's self-check: the corrupt image
// must provably disagree with the checksum PostSend took while the clean
// bytes still match it. Either failing is a model bug (a checksum that
// cannot see the fault it is rejecting), never a simulated fault. The
// "capture" it checks against is the post, so it covers the source bytes
// from post to delivery only. Before the post, adi's own checksums cover
// them: an eager envelope's (stampPayloadCRC ↔ verifyEagerCRC) and, for
// rendezvous stripes, the whole message's (sendRTS ↔ verifyAssembled).
// One-sided stripes have no check before the post.
func (o *wrOp) verifyTaint() {
	if o.crc == 0 || len(o.data) == 0 {
		return
	}
	if buf.Sum(o.data) != o.crc {
		panic("ib: captured payload no longer matches its capture-time checksum")
	}
	if o.flipMask != 0 && buf.SumFlipped(o.data, o.flipOff, o.flipMask) == o.crc {
		panic("ib: injected bit flip is invisible to the checksum")
	}
}

// verifyRead is the read-response analogue: reads carry no capture-time
// checksum (the responder's HCA computes it over the region as it streams),
// so the self-check only proves the flip would have changed the source
// bytes' checksum.
func (o *wrOp) verifyRead(mr *MR) {
	var src []byte
	if mr.Buf != nil {
		k := o.n
		if len(mr.Buf)-o.off < k {
			k = len(mr.Buf) - o.off
		}
		src = mr.Buf[o.off : o.off+k]
	}
	if len(src) == 0 || o.flipMask == 0 {
		return
	}
	off := o.flipOff
	if off >= len(src) {
		off = len(src) - 1
	}
	if buf.SumFlipped(src, off, o.flipMask) == buf.Sum(src) {
		panic("ib: injected read flip is invisible to the checksum")
	}
}

// region resolves the op's rkey at placement, as a responder HCA does: nil
// when the region was deregistered while the WR was in flight.
func (o *wrOp) region() *MR { return o.q.realm.mrs[o.rkey] }

func (r *Realm) putOp(o *wrOp) {
	*o = wrOp{}
	r.ops.Put(o)
}

// opDelivered fires when an OpSend/OpRDMAWrite payload is fully placed in
// remote memory: the remote effect happens here unless the descriptor's
// rail failed first.
func opDelivered(a any, t hca.Timing) {
	o := a.(*wrOp)
	q := o.q
	if q.lost(o.epoch) {
		return
	}
	armed := q.realm.integrity
	if armed && o.rejected() {
		// The receiving HCA's ICRC check rejects the corrupt image: nothing
		// is placed, no receive completes, and the ack carries the NAK
		// (StatusIntegrityErr at opAcked). effected stays false — exactly a
		// lost chunk's footprint at the responder.
		o.verifyTaint()
		o.integrityFail = true
		return
	}
	flipOff, flipMask, hdr := o.flipOff, o.flipMask, o.hdrTaint
	var tornAt sim.Time
	if o.torn && armed {
		// Armed torn write: the doorbell outran the payload, but the slot
		// format carries a consistency marker, so the bytes are merely late,
		// not wrong. The slot settles shortly after placement; the ring
		// consume guard re-polls until then and never sees the stale tail.
		flipOff, flipMask = 0, 0
		tornAt = t.InMemory + q.realm.M.TornSettle
	}
	o.effected = true
	remote := q.remote
	switch o.op {
	case OpSend:
		remote.arrive(message{qp: remote, data: o.data, n: o.n, imm: o.imm, hasImm: o.hasImm, ctx: o.ctx,
			flipOff: flipOff, flipMask: flipMask, hdr: hdr})
	case OpRDMAWrite:
		mr := o.region()
		if mr == nil {
			o.accessErr = true // region deregistered under the write
			return
		}
		if mr.Buf != nil && o.data != nil {
			k := o.n
			if len(o.data) < k {
				k = len(o.data)
			}
			copy(mr.Buf[o.off:o.off+k], o.data[:k])
			if flipMask != 0 && flipOff < k {
				// Disarmed flip (or stale torn tail) materializes in the
				// receiver's memory only — sender-owned views stay intact.
				mr.Buf[o.off+flipOff] ^= flipMask
			}
		}
		if o.hasImm {
			remote.arrive(message{qp: remote, n: o.n, imm: o.imm, hasImm: true, ctx: o.ctx,
				flipOff: flipOff, flipMask: flipMask, hdr: hdr, tornAt: tornAt})
		}
	}
}

// opAcked fires when the RC acknowledgment returns; it is provably the last
// pipeline reference to the op, so it recycles the state.
func opAcked(a any, _ hca.Timing) {
	o := a.(*wrOp)
	q := o.q
	if o.integrityFail && !q.lost(o.epoch) {
		// NAK Invalid-ICRC: the requester HCA retransmits autonomously —
		// a transport-level retry below the verbs layer, exempt from further
		// corruption (a transient flip does not repeat) and alive even when
		// the consumer never polls again. A signaled WR surfaces one
		// informational StatusIntegrityErr CQE per rejection so software can
		// tally it and strike the rail; the completion callback semantics
		// ride the eventual success CQE of the same WRID.
		if o.signaled {
			q.CQ.push(CQE{QPN: q.QPN, WRID: o.wrid, Op: o.op, Status: StatusIntegrityErr, Bytes: o.n})
		}
		o.integrityFail = false
		o.flipOff, o.flipMask, o.hdrTaint, o.torn = 0, 0, false, false
		q.flow.SendCtx(o.n, o, opDelivered, opAcked)
		return
	}
	o.integrityFail = false // rail died before the retry: the flush wins
	q.outstanding--
	st := StatusSuccess
	if q.lost(o.epoch) && !o.effected {
		st = StatusFlushErr
	} else if o.accessErr {
		st = StatusRemoteAccessErr
	}
	if o.signaled {
		e := CQE{QPN: q.QPN, WRID: o.wrid, Op: o.op, Status: st, Bytes: o.n}
		if st == StatusSuccess && !q.realm.integrity && (o.flipMask != 0 || o.hdrTaint) {
			// Disarmed taint echo: the receiver of a stripe has no receive
			// completion to see the corruption on, so audit mode reads it off
			// the sender's success CQE.
			e.FlipOff, e.FlipMask, e.HdrTaint = o.flipOff, o.flipMask, o.hdrTaint
		}
		q.CQ.push(e)
	}
	q.realm.putOp(o)
}

// postRead models an RDMA read: a header-only request rides the requester's
// flow; the responder then streams the region back on its responder
// resources. The completion fires when the data lands in local memory
// (read responses carry their own completion semantics; the trailing
// response-path acknowledgment is a negligible modeling artifact).
func (q *QP) postRead(wr SendWR) {
	o := q.realm.ops.Get()
	o.q, o.epoch, o.op = q, q.epoch, OpRDMARead
	o.data, o.n, o.off = wr.Data, wr.N, wr.RemoteOff
	o.rkey = wr.RKey
	o.wrid, o.signaled = wr.WRID, wr.Signaled
	if wr.Payload && !wr.NoCorrupt {
		o.stampCorrupt(q.Port.CorruptNext(false, false))
	}
	q.flow.SendCtx(0, o, readReqDelivered, nil)
}

// failRead completes a read that placed nothing — flushed by a failure, or
// its region deregistered in flight — and recycles its op.
func (o *wrOp) failRead(st Status) {
	q := o.q
	q.outstanding--
	if o.signaled {
		q.CQ.push(CQE{QPN: q.QPN, WRID: o.wrid, Op: OpRDMARead, Status: st, Bytes: o.n})
	}
	q.realm.putOp(o)
}

// readReqDelivered fires when the read request reaches the responder, which
// then streams the region back on the requester's responder resources.
func readReqDelivered(a any, _ hca.Timing) {
	o := a.(*wrOp)
	if o.q.lost(o.epoch) {
		o.failRead(StatusFlushErr) // request lost before reaching the responder
		return
	}
	o.q.RespFlow().SendCtx(o.n, o, readRespDelivered, nil)
}

// readRespDelivered fires when the read data lands in local memory.
func readRespDelivered(a any, _ hca.Timing) {
	o := a.(*wrOp)
	q := o.q
	if q.lost(o.epoch) {
		o.failRead(StatusFlushErr) // response lost in flight; no local memory was touched
		return
	}
	mr := o.region()
	if mr == nil {
		o.failRead(StatusRemoteAccessErr) // region deregistered under the read
		return
	}
	if q.realm.integrity && o.flipMask != 0 {
		// The requester's HCA ICRC check rejects the corrupt read response:
		// local memory is untouched and the transport re-issues the read
		// autonomously, exempt from further corruption. One informational
		// StatusIntegrityErr CQE per rejection lets software tally it; the
		// op itself stays in flight until the clean response lands.
		o.verifyRead(mr)
		if o.signaled {
			q.CQ.push(CQE{QPN: q.QPN, WRID: o.wrid, Op: OpRDMARead, Status: StatusIntegrityErr, Bytes: o.n})
		}
		o.flipOff, o.flipMask = 0, 0
		q.flow.SendCtx(0, o, readReqDelivered, nil)
		return
	}
	if o.data != nil && mr.Buf != nil {
		k := o.n
		if len(o.data) < k {
			k = len(o.data)
		}
		copy(o.data[:k], mr.Buf[o.off:o.off+k])
	}
	if o.flipMask != 0 && o.data != nil {
		off := o.flipOff
		if off >= len(o.data) {
			off = len(o.data) - 1
		}
		if off >= 0 {
			// Disarmed read flip materializes in the requester's local copy
			// only — the responder's region is never touched.
			o.data[off] ^= o.flipMask
		}
	}
	q.outstanding--
	if o.signaled {
		e := CQE{QPN: q.QPN, WRID: o.wrid, Op: OpRDMARead, Status: StatusSuccess, Bytes: o.n}
		if o.flipMask != 0 {
			e.FlipOff, e.FlipMask = o.flipOff, o.flipMask
		}
		q.CQ.push(e)
	}
	q.realm.putOp(o)
}

// postAtomic models an IB atomic: a small request travels to the responder,
// whose HCA performs the 8-byte read-modify-write in arrival order (the
// simulation's event serialization provides the atomicity guarantee the
// hardware does) and streams the original value back.
func (q *QP) postAtomic(wr SendWR) {
	o := q.realm.ops.Get()
	o.q, o.epoch, o.op = q, q.epoch, wr.Op
	o.off, o.rkey = wr.RemoteOff, wr.RKey
	o.operand, o.swap = wr.CompareAdd, wr.Swap
	o.wrid, o.signaled = wr.WRID, wr.Signaled
	q.flow.SendCtx(8, o, atomicReqDelivered, nil)
}

// atomicReqDelivered fires when the atomic request reaches the responder,
// whose HCA performs the 8-byte read-modify-write in arrival order (the
// simulation's event serialization provides the atomicity guarantee the
// hardware does) and streams the original value back.
func atomicReqDelivered(a any, _ hca.Timing) {
	o := a.(*wrOp)
	q := o.q
	if q.lost(o.epoch) {
		// Request lost before the responder applied it: flush, so the
		// requester may safely retry without double-applying.
		q.outstanding--
		if o.signaled {
			q.CQ.push(CQE{QPN: q.QPN, WRID: o.wrid, Op: o.op, Status: StatusFlushErr, Bytes: 8})
		}
		q.realm.putOp(o)
		return
	}
	mr := o.region()
	if mr == nil {
		o.accessErr = true // region deregistered under the atomic
	} else if mr.Buf != nil {
		b := mr.Buf[o.off : o.off+8]
		old := binary.LittleEndian.Uint64(b)
		var next uint64
		switch o.op {
		case OpAtomicFAdd:
			next = old + o.operand
		case OpAtomicCAS:
			next = old
			if old == o.operand {
				next = o.swap
			}
		}
		binary.LittleEndian.PutUint64(b, next)
		o.old = old
	}
	o.q.RespFlow().SendCtx(8, o, atomicRespDelivered, nil)
}

// atomicRespDelivered completes the atomic at the requester. The RMW was
// applied at the responder, so it completes successfully even if a failure
// struck while the response was in flight — retrying an applied atomic
// would double-apply it.
func atomicRespDelivered(a any, _ hca.Timing) {
	o := a.(*wrOp)
	q := o.q
	q.outstanding--
	if o.signaled {
		st := StatusSuccess
		if o.accessErr {
			st = StatusRemoteAccessErr
		}
		q.CQ.push(CQE{QPN: q.QPN, WRID: o.wrid, Op: o.op, Status: st, Bytes: 8, AtomicOld: o.old})
	}
	q.realm.putOp(o)
}

// arrive routes an inbound message to the QP's receive pool (own or shared).
func (q *QP) arrive(msg message) {
	if q.SRQ != nil {
		q.SRQ.pool.arrive(msg)
		return
	}
	q.recvQueue().arrive(msg)
}

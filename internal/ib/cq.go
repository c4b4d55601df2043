package ib

import "ib12x/internal/sim"

// Status of a completed work request.
type Status int

// Completion statuses.
const (
	StatusSuccess Status = iota
	StatusLocalError
	// StatusFlushErr reports a work request flushed by a QP failure before
	// its remote effect happened: the payload never reached (or never left)
	// the peer, so the requester must retransmit on another rail. Requests
	// whose effect did land before the failure complete with StatusSuccess
	// even if the trailing ack was lost — exactly-once semantics, matching
	// a Reliable Connection's responder-side duplicate suppression.
	StatusFlushErr
	// StatusIntegrityErr reports a payload work request rejected by the
	// receiving HCA's ICRC-style check (mpi.Config.Integrity armed): the
	// corrupt image was never placed, so the remote side is untouched and
	// the requester must retransmit — the NAK of the integrity layer. Only
	// the chaos harness's corruption plans can produce it.
	StatusIntegrityErr
	// StatusRemoteAccessErr reports an RDMA write, read or atomic whose
	// rkey no longer resolved when the responder came to place it: the
	// region was deregistered while the WR was in flight, so nothing was
	// placed (a responder HCA's remote-access NAK).
	StatusRemoteAccessErr
)

// CQE is a completion queue entry.
//
// Ctx and Data are simulation conveniences standing in for what real verbs
// software reads out of its registered bounce buffers: Ctx carries the
// sender's opaque protocol header object, Data the eager payload bytes.
type CQE struct {
	QPN    int
	WRID   uint64
	Op     Opcode
	Status Status
	Bytes  int
	Imm    uint64 // immediate data, valid when HasImm
	HasImm bool
	Ctx    any    // sender's SendWR.Ctx (receive completions only)
	Data   []byte // payload reference (receive completions only)

	// AtomicOld is the pre-operation value returned by OpAtomicFAdd and
	// OpAtomicCAS completions.
	AtomicOld uint64

	// Corruption taint (chaos integrity plans, verification off). On a
	// receive completion it tells the consumer which corrupt image the wire
	// delivered; on a send completion it echoes the taint back so audit
	// mode can tally silent escapes at the endpoint that owns the stats.
	// With verification armed these never reach a receive completion — the
	// tainted placement is suppressed and the sender sees
	// StatusIntegrityErr instead. FlipOff/FlipMask describe a single
	// XORed payload byte; HdrTaint a mangled wire header; TornAt the
	// instant a torn ring slot's payload settles (zero = consistent).
	FlipOff  int
	FlipMask byte
	HdrTaint bool
	TornAt   sim.Time
}

// CQ is a completion queue. Completions are pushed by the simulated
// hardware; software drains them with Poll. An optional notify callback
// fires on every push, letting a progress engine wake its rank.
type CQ struct {
	realm  *Realm
	q      sim.Ring[CQE]
	notify func()
}

// NewCQ creates a completion queue in the realm.
func (r *Realm) NewCQ() *CQ { return &CQ{realm: r} }

// SetNotify registers fn to be invoked whenever a completion is pushed.
func (cq *CQ) SetNotify(fn func()) { cq.notify = fn }

// Poll removes and returns the oldest completion, if any.
func (cq *CQ) Poll() (CQE, bool) {
	if cq.q.Len() == 0 {
		return CQE{}, false
	}
	return cq.q.Pop(), true
}

// Len reports the number of undrained completions.
func (cq *CQ) Len() int { return cq.q.Len() }

func (cq *CQ) push(e CQE) {
	cq.q.Push(e)
	if cq.notify != nil {
		cq.notify()
	}
}

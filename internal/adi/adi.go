// Package adi is the Abstract Device Interface layer of the MPI design
// (paper §3, Figure 2): it implements the eager and rendezvous protocols,
// MPI tag matching with an unexpected queue, the communication marker that
// classifies each transfer as {blocking, non-blocking, collective}, the
// completion filter (per-rank progress engine), and the communication
// scheduler that maps messages onto rails via a core.Policy.
//
// One Endpoint exists per MPI rank. Everything an Endpoint does is driven
// from its rank's simulated process: CPU costs (header processing,
// descriptor posting, completion reaping, eager copies) are charged to the
// rank by sleeping its proc, exactly where MVAPICH would burn host cycles.
package adi

import (
	"errors"
	"fmt"

	"ib12x/internal/buf"
	"ib12x/internal/core"
	"ib12x/internal/sim"
)

// Tag/source wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG).
const (
	AnySource = -1
	AnyTag    = -1
)

// Context identifiers separating point-to-point from collective traffic;
// the separate collective context is what lets the communication marker
// recognise collective transfers at the ADI layer (paper §3.3).
const (
	CtxPt2Pt      = 0
	CtxCollective = 1
)

// ErrTruncated reports a message longer than the posted receive buffer.
var ErrTruncated = errors.New("adi: message truncated (receive buffer too small)")

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // received bytes
	Err    error
}

// Request is a pending or completed communication operation.
// NoLane marks a request that carries no lane-steering hint: rail choice
// stays with the scheduling policy. (Pooled requests and envelopes zero
// their lane field to 0, a valid lane, so every send path assigns the
// field explicitly.)
const NoLane = -1

type Request struct {
	ep *Endpoint

	// Matching fields (receive side) / envelope fields (send side). Once a
	// receive matches, peer, tag and n are the matched source, tag and byte
	// count: a request carries no separate status.
	peer  int // destination (send) or source selector (recv; AnySource ok)
	tag   int
	ctxID int

	data []byte // send payload or recv buffer (nil = synthetic)
	n    int    // send size, or recv capacity until matched

	// lane is the lane-steering hint (NoLane = none): when set, every
	// transfer of this send — the eager message or all rendezvous bulk
	// stripes — is pinned to rail lane%rails (stepped off dead rails),
	// bypassing the policy. Lane-decomposed collectives use it to keep
	// each sub-collective on its own rail.
	lane int

	err error // the receive's completion error (ErrTruncated)

	// postSeq orders posted receives globally on their endpoint; the
	// matching index uses it to arbitrate between a specific-source bucket
	// hit and a wildcard-list hit (earliest post wins, the MPI rule).
	postSeq uint64

	// Rendezvous send state.
	writesLeft int
	mrKey      uint32

	// Whole-message checksum of a rendezvous transfer (receive side; carried
	// over from the RTS when integrity is on): checked once the last stripe
	// is in place, modeling the end-to-end pass over the assembled buffer.
	crc uint32

	class  core.Class
	send   bool
	done   bool
	crcSet bool // crc holds the RTS's checksum
	// noCorrupt marks a send initiated inside Endpoint.Shielded: its bytes
	// are protocol metadata riding the message path, exempt from payload
	// corruption so chaos plans stay liveness-safe by construction.
	noCorrupt bool

	// owner is the payload view a bulk send/put holds while its bytes are
	// exposed to the transport: a Wrap of the user's buffer (zero-copy, no
	// capture) retained until the protocol guarantees remote placement
	// (FIN/DONE or the final stripe ack), so a stripe retransmitted after a
	// rail death always references live bytes.
	owner buf.View

	// Atomic result (FetchAtomic requests).
	atomicOld uint64
}

// AtomicOld reports the pre-operation value of a completed atomic request.
func (r *Request) AtomicOld() uint64 { return r.atomicOld }

// Done reports whether the operation has completed.
func (r *Request) Done() bool { return r.done }

// Status returns the request's status; meaningful once Done. A send's is
// its own rank, tag and size; a receive's the matched source, tag and byte
// count, with ErrTruncated if the message was longer than the buffer.
func (r *Request) Status() Status {
	src := r.peer
	if r.send {
		src = r.ep.Rank
	}
	return Status{Source: src, Tag: r.tag, Count: r.n, Err: r.err}
}

// envKind discriminates protocol envelopes.
type envKind int

const (
	envEager envKind = iota
	envRTS
	envCTS
	envFIN
	envDone       // RGET: receiver finished reading; sender may complete
	envPut        // one-sided: message-based put (intra-node path)
	envAccum      // one-sided: accumulate (always message-based)
	envGetReq     // one-sided: message-based get request
	envGetResp    // one-sided: get response
	envAtomicReq  // one-sided: message-based atomic request
	envAtomicResp // one-sided: atomic response with the old value
	envCredit     // explicit flow-control credit return
	envProbe      // rail-health probe on a quarantined QP (credit-exempt)
)

func (k envKind) String() string {
	switch k {
	case envEager:
		return "EAGER"
	case envRTS:
		return "RTS"
	case envCTS:
		return "CTS"
	case envFIN:
		return "FIN"
	case envDone:
		return "DONE"
	case envPut:
		return "PUT"
	case envAccum:
		return "ACCUM"
	case envGetReq:
		return "GET_REQ"
	case envGetResp:
		return "GET_RESP"
	case envAtomicReq:
		return "ATOMIC_REQ"
	case envAtomicResp:
		return "ATOMIC_RESP"
	case envCredit:
		return "CREDIT"
	case envProbe:
		return "PROBE"
	default:
		return fmt.Sprintf("envKind(%d)", int(k))
	}
}

// envelope is the protocol header carried with every transfer. Eager data
// and RTS envelopes are sequenced per connection so MPI's non-overtaking
// matching order survives multi-rail delivery reordering; CTS and FIN are
// targeted at specific requests and need no sequencing.
type envelope struct {
	kind  envKind
	src   int
	tag   int
	ctxID int
	size  int
	seq   uint64
	class core.Class // sender-side marker class (RTS; drives RGET striping)

	// pay is the envelope's owned payload view (zero = synthetic): the one
	// capture copy an eager/message-RMA send makes. Every downstream layer
	// borrows it; the receiver's pool.put releases it after delivery.
	pay buf.View

	shm bool // arrived via the shared-memory channel

	// arrSeq orders unexpected arrivals globally on the receiving endpoint
	// (assigned when the envelope parks in the unexpected index).
	arrSeq uint64

	// Request references: stand-ins for the request identifiers MVAPICH
	// embeds in its control messages.
	sreq *Request
	rreq *Request

	rkey uint32 // CTS: receiver's buffer key; RTS (RGET): sender's buffer key
	xfer int    // CTS: bytes the receiver will accept

	// lane carries the sender's lane-steering hint on an RTS so an RGET
	// receiver pins its read to the same lane (NoLane = none; always
	// assigned by sendRTS — pooled envelopes zero to 0, not NoLane).
	lane int

	// One-sided fields.
	winID int
	off   int
	accOp AccOp

	// Atomic operands and result.
	arg1, arg2, old uint64
	atomicCAS       bool

	// credits piggybacks returned flow-control credits on any channel
	// message (envCredit carries them alone).
	credits int

	// ring marks an envelope delivered through the RDMA-write eager ring:
	// it occupies a ring slot (returned via ringCredits) instead of a
	// channel credit, and the receiver discovers it by polling.
	ring bool

	// ringCredits piggybacks freed ring slots back to the peer on any
	// reverse message (ring, channel, or an explicit envCredit).
	ringCredits int

	// Integrity fields (DESIGN.md §17). crc is the payload's capture-time
	// checksum (eager) or the whole message's (RTS), valid when hasCRC; the
	// taint fields are stamped at the receiver from the completion entry and
	// describe which corrupt image the wire delivered (all zero on a clean
	// fabric): a single XORed payload byte, a mangled wire header, or — ring
	// slots only — the instant an inconsistently written slot settles.
	crc      uint32
	hasCRC   bool
	flipOff  int
	flipMask byte
	hdrTaint bool
	tornAt   sim.Time
	// noCorrupt carries the sending request's shield (Endpoint.Shielded)
	// onto the wire descriptor.
	noCorrupt bool
}

// RndvProto selects the rendezvous data-transfer engine.
type RndvProto int

// Rendezvous protocol variants (both existed in MVAPICH):
const (
	// RndvWrite: receiver grants its buffer via CTS; sender RDMA-writes
	// (RPUT, the paper's protocol).
	RndvWrite RndvProto = iota
	// RndvRead: sender exposes its buffer in the RTS; receiver
	// RDMA-reads (RGET). Saves the CTS flight at the cost of read
	// round-trip latency; the scheduling policies stripe the reads.
	RndvRead
)

// EagerProto selects the eager-message transport channel.
type EagerProto int

// Eager protocol variants:
const (
	// EagerSendRecv ships eager messages as channel sends consuming
	// preposted receives at the peer (the historical path; zero value
	// preserves every digest).
	EagerSendRecv EagerProto = iota
	// EagerRDMAWrite ships them as RDMA writes with immediate into a
	// persistent per-peer ring buffer discovered by the receiver's polling
	// set, with a sender-side header cache compressing repeated envelope
	// signatures — Liu et al.'s MPICH2-over-InfiniBand fast path
	// (DESIGN.md §16). Oversized or ring-blocked messages fall back to the
	// send/recv channel.
	EagerRDMAWrite
)

// Stats counts protocol activity on one endpoint.
type Stats struct {
	EagerSent       int64
	RendezvousSent  int64
	StripesSent     int64
	StripesRead     int64
	ShmemSent       int64
	UnexpectedHits  int64
	CtrlMsgs        int64
	CreditStalls    int64 // channel messages deferred on empty credit pools
	CreditUpdates   int64 // explicit credit-return messages sent
	RailRetransmits int64 // WRs rerouted onto survivors after a rail death

	// Rail reliability layer (World.EnableReliability).
	RailSuspects       int64 // up -> suspect transitions (deadline strikes)
	RailQuarantines    int64 // rails removed from the policy masks
	RailProbes         int64 // probe WRs that reached a quarantined QP
	RailReintegrations int64 // rails returned to service by a probe

	// Pin-down registration cache (Options.RegCache; all zero when off).
	RegHits       int64 // registrations already covered by a pinned region
	RegMisses     int64 // registrations that pinned new pages
	RegEvictions  int64 // regions evicted under capacity pressure
	RegPinnedPeak int64 // pinned-bytes high-water mark on this endpoint

	// RDMA-write eager ring (Options.EagerProto = EagerRDMAWrite).
	RingSends      int64 // eager messages shipped through the per-peer ring
	RingFull       int64 // ring sends declined on an exhausted slot pool
	EagerFallbacks int64 // eager messages diverted to the send/recv channel
	HdrCacheHits   int64 // ring sends that shipped the compressed header

	// Integrity layer (Options.Integrity; DESIGN.md §17).
	IntegrityNacks    int64 // payload WRs NACKed by the receiving HCA's check
	CorruptDeliveries int64 // corrupted payloads reaching application memory
	TornRepolls       int64 // ring slots re-polled by the torn-write guard
}

// classIsValid guards the marker input.
func classIsValid(c core.Class) bool {
	return c == core.Blocking || c == core.NonBlocking || c == core.Collective
}

// park reason used by the progress engine while blocked on events.
const whyWaitReq = "adi: waiting for request completion"

// Package ib is a verbs-flavoured InfiniBand software interface over the
// simulated IBM 12x HCA: queue pairs with send/receive queues, completion
// queues, memory regions with remote keys, a shared receive queue, RDMA
// write, and the Reliable Connection transport semantics the paper relies on
// (in-order per-QP execution, per-descriptor acknowledgments).
//
// All objects of one simulation live in a Realm, which owns the QP number
// and rkey spaces; nothing is global, so concurrent simulations (parallel
// tests) never share state.
package ib

import (
	"errors"
	"fmt"

	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// Errors returned by posting operations.
var (
	ErrNotConnected = errors.New("ib: queue pair is not connected")
	ErrSQFull       = errors.New("ib: send queue full")
	ErrBadWR        = errors.New("ib: malformed work request")
	ErrBadRKey      = errors.New("ib: unknown remote key")
	ErrMRBounds     = errors.New("ib: RDMA access outside memory region")
	ErrQPDown       = errors.New("ib: queue pair is down")
)

// Opcode identifies the operation of a work request or completion.
type Opcode int

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpRDMAWrite
	OpRDMARead
	OpAtomicFAdd // 8-byte remote fetch-and-add
	OpAtomicCAS  // 8-byte remote compare-and-swap
	OpRecv       // completion-side only
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMARead:
		return "RDMA_READ"
	case OpAtomicFAdd:
		return "ATOMIC_FADD"
	case OpAtomicCAS:
		return "ATOMIC_CAS"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Realm owns the identifier spaces of one simulation.
type Realm struct {
	Eng    *sim.Engine
	M      *model.Params
	qpn    int
	rkey   uint32
	mrs    map[uint32]*MR
	mrFree []*MR          // deregistered MR structs, reused by RegisterMR
	ops    sim.Slab[wrOp] // recycled work-request descriptors
	stats  RealmStats

	// integrity arms the receiving-HCA ICRC check: tainted payload
	// placements are suppressed and the sender is NACKed with
	// StatusIntegrityErr. Set once at world build (mpi.Config.Integrity),
	// read-only during the run.
	integrity bool
}

// EnableIntegrity arms the ICRC-style placement check on every QP of the
// realm (DESIGN.md §17). Call before the run starts.
func (r *Realm) EnableIntegrity() { r.integrity = true }

// RealmStats aggregates transport-level counters across the realm.
type RealmStats struct {
	SendsPosted   int64
	WritesPosted  int64
	ReadsPosted   int64
	AtomicsPosted int64
	RecvsPosted   int64
	BytesSent     int64
	BytesRead     int64
}

// NewRealm creates an identifier realm bound to a simulation engine.
func NewRealm(eng *sim.Engine, m *model.Params) *Realm {
	return &Realm{Eng: eng, M: m, mrs: make(map[uint32]*MR)}
}

// Stats returns a copy of the realm counters.
func (r *Realm) Stats() RealmStats { return r.stats }

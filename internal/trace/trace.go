// Package trace provides run introspection: a protocol event recorder that
// the ADI layer feeds when attached, and a resource report summarising
// hardware utilization after a run (engines, lanes, scheduler, GX+ bus,
// protocol counters).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"ib12x/internal/sim"
)

// Kind classifies a protocol event.
type Kind int

// Protocol event kinds, in rough lifecycle order.
const (
	KindEager Kind = iota
	KindRTS
	KindCTS
	KindStripeWrite
	KindStripeRead
	KindFIN
	KindDeliver
	KindShmem
	KindRMA
	// KindRetransmit records a work request rerouted onto a surviving rail
	// after its original rail died mid-flight (chaos harness); Rail is the
	// rail the WR was flushed from.
	KindRetransmit
	// Rail-health transitions of the self-healing reliability layer
	// (adi.ReliabilityConfig): a rail turning suspect on a blown completion
	// deadline, entering quarantine, being probed, and returning to
	// service. Rail is the rail index, Peer the connection's far rank.
	KindRailSuspect
	KindRailQuarantine
	KindRailProbe
	KindRailReintegrate
	// Pin-down registration cache (internal/regcache): a registration miss
	// that pinned new pages (Bytes is the region size), and the evictions it
	// forced (Bytes is the total pinned span dropped). Hits are silent — the
	// warm path records nothing.
	KindRegMiss
	KindRegEvict

	// Lane-decomposed collectives (internal/mpi lanes): a bulk transfer
	// pinned to its lane's rail instead of policy-planned stripes (Rail is
	// the steered rail — it differs from the lane while the lane's home
	// rail is quarantined).
	KindLanePin

	// RDMA-write eager ring (adi.EagerRDMAWrite): the ring cursor wrapping
	// back to slot zero, a header-cache hit shipping the compressed wire
	// header, and an eager message falling back to the send/recv channel
	// (ring full, oversized payload, or ring torn down on a dead rail).
	KindRingWrap
	KindHdrHit
	KindEagerFallback

	// Integrity layer (mpi.Config.Integrity; DESIGN.md §17): a failed
	// ICRC-style check NACKing a payload work request back to the sender,
	// a corrupted payload delivered to the application with verification
	// off (the audit trail of silent escapes), and a ring slot re-polled
	// after the torn-write guard caught an inconsistent consistency marker.
	KindIntegrityNack
	KindCorruptDeliver
	KindTornRepoll
)

func (k Kind) String() string {
	switch k {
	case KindEager:
		return "EAGER"
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindStripeWrite:
		return "WRITE"
	case KindStripeRead:
		return "READ"
	case KindFIN:
		return "FIN"
	case KindDeliver:
		return "DELIVER"
	case KindShmem:
		return "SHMEM"
	case KindRMA:
		return "RMA"
	case KindRetransmit:
		return "RETRANS"
	case KindRailSuspect:
		return "SUSPECT"
	case KindRailQuarantine:
		return "QUARANTINE"
	case KindRailProbe:
		return "PROBE"
	case KindRailReintegrate:
		return "REINTEGRATE"
	case KindRegMiss:
		return "REGMISS"
	case KindRegEvict:
		return "REGEVICT"
	case KindLanePin:
		return "LANEPIN"
	case KindRingWrap:
		return "RINGWRAP"
	case KindHdrHit:
		return "HDRHIT"
	case KindEagerFallback:
		return "FALLBACK"
	case KindIntegrityNack:
		return "NACK"
	case KindCorruptDeliver:
		return "CORRUPT"
	case KindTornRepoll:
		return "TORNPOLL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded protocol action.
type Event struct {
	T     sim.Time
	Kind  Kind
	Rank  int // acting rank
	Peer  int // other side (-1 if none)
	Bytes int
	Rail  int // rail index (-1 if not rail-specific)
}

// Recorder accumulates events. Each recorder is fed from a single engine,
// which runs one handler or proc at a time, so no locking is needed. A nil *Recorder is safe to record
// into (no-op), which lets the ADI layer call unconditionally.
type Recorder struct {
	events []Event
	limit  int
}

// NewRecorder creates a recorder keeping at most limit events (0 = 64k).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 64 << 10
	}
	return &Recorder{limit: limit}
}

// Record appends an event; it is a no-op on a nil recorder or at capacity.
func (r *Recorder) Record(t sim.Time, kind Kind, rank, peer, bytes, rail int) {
	if r == nil {
		return
	}
	if len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, Event{T: t, Kind: kind, Rank: rank, Peer: peer, Bytes: bytes, Rail: rail})
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded events in time order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Timeline formats up to max events as an aligned text timeline.
func (r *Recorder) Timeline(max int) string {
	evs := r.Events()
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	var b strings.Builder
	for _, e := range evs {
		rail := "-"
		if e.Rail >= 0 {
			rail = fmt.Sprintf("r%d", e.Rail)
		}
		fmt.Fprintf(&b, "%12v  %-7s  rank%-3d -> %-3d  %8dB  %s\n",
			e.T, e.Kind, e.Rank, e.Peer, e.Bytes, rail)
	}
	return b.String()
}

// Summary aggregates counts and bytes per kind.
func (r *Recorder) Summary() string {
	type agg struct {
		count int
		bytes int64
	}
	byKind := map[Kind]*agg{}
	for _, e := range r.Events() {
		a := byKind[e.Kind]
		if a == nil {
			a = &agg{}
			byKind[e.Kind] = a
		}
		a.count++
		a.bytes += int64(e.Bytes)
	}
	kinds := make([]Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	for _, k := range kinds {
		a := byKind[k]
		fmt.Fprintf(&b, "%-8s %8d events %14d bytes\n", k, a.count, a.bytes)
	}
	return b.String()
}

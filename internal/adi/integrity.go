// End-to-end payload integrity (DESIGN.md §17): ICRC-style checksums
// computed once at capture time, carried with the wire message, and checked
// by the receiving HCA before placement. A failed check NACKs the work
// request back to the requester's HCA, which retransmits it autonomously at
// the transport level — exempt from further corruption, like a real link
// whose transient flip does not repeat, and independent of whether software
// ever polls again. Each rejection surfaces one informational
// StatusIntegrityErr completion so the endpoint can tally it and book a
// strike against the rail with the reliability layer, so a persistently
// flipping rail is quarantined exactly like one blowing completion deadlines.
//
// Three modes:
//
//   - IntegrityOff (zero value): the historical transport. Chaos corruption
//     plans deliver their corrupted images to application memory; each such
//     delivery is tallied (CorruptDeliveries) and traced, which is the audit
//     trail the silent-corruption study reads.
//   - IntegrityAudit: identical virtual-time behavior to Off — no charges,
//     corruption still delivered — but checksums are computed and carried so
//     the model can self-check that every injected fault is detectable
//     (an undetectable fault panics: it is a model bug, not a simulated one).
//   - IntegrityVerify: checksums are charged (ChecksumCost + size at
//     ChecksumRate, once at capture and once at verification), corrupted
//     placements are suppressed at the receiving HCA, and the NACK path
//     retransmits. Payload digests are bit-identical to a fault-free run.
package adi

import (
	"ib12x/internal/buf"
	"ib12x/internal/ib"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// IntegrityMode selects the end-to-end checksum model (Options.Integrity).
type IntegrityMode int

const (
	// IntegrityOff is the historical transport: no checksums, corruption
	// plans deliver, deliveries are tallied. The zero value preserves every
	// historical digest.
	IntegrityOff IntegrityMode = iota
	// IntegrityAudit carries checksums for self-checking without charging
	// for them or suppressing corrupt placements.
	IntegrityAudit
	// IntegrityVerify arms the receiving-HCA check, the charges, and the
	// NACK-driven retransmission. Implies in-flight WR tracking, which
	// names the connection and rail of each NACK.
	IntegrityVerify
)

func (m IntegrityMode) String() string {
	switch m {
	case IntegrityOff:
		return "off"
	case IntegrityAudit:
		return "audit"
	case IntegrityVerify:
		return "verify"
	default:
		return "IntegrityMode(?)"
	}
}

// Shielded runs f with corruption injection disabled for every send this
// endpoint initiates inside it. The mpi layer wraps its protocol-metadata
// exchanges in it — window rkey distribution, fence count exchange — whose
// bytes steer protocol control flow rather than carry application data: a
// flipped rkey or fence count would wedge or crash the run, and the chaos
// fault model is liveness-safe by construction (payload faults corrupt
// answers, never progress). Real header bytes enjoy the same distinction:
// they are VCRC-checked per hop, while payload rides end-to-end on the ICRC
// this package models.
func (ep *Endpoint) Shielded(f func()) {
	ep.shield++
	defer func() { ep.shield-- }()
	f()
}

// checksumTime is the modeled cost of one checksum pass over n bytes.
func (ep *Endpoint) checksumTime(n int) sim.Time {
	return ep.m.ChecksumCost + sim.TransferTime(int64(n), ep.m.ChecksumRate)
}

// stampPayloadCRC books an eager payload's capture-time checksum on its
// envelope: Audit computes it silently, Verify also charges the pass. The
// charge is independent of whether the run carries real bytes — synthetic
// (nil-buffer) workloads model the same wire traffic, and a real HCA
// checksums every payload — only the actual CRC needs bytes to exist.
func (ep *Endpoint) stampPayloadCRC(env *envelope, n int) {
	if ep.integrity == IntegrityOff {
		return
	}
	if ep.integrity == IntegrityVerify {
		ep.charge(ep.checksumTime(n))
	}
	if env.pay.Zero() {
		return
	}
	env.crc, env.hasCRC = buf.Sum(env.pay.Bytes()[:n]), true
}

// verifyEagerCRC runs the receiver-side check of a delivered eager payload.
// With Verify armed a corrupted envelope can never reach here (the HCA
// suppressed it), so a mismatch is a model escape, not a simulated fault.
// Audit asserts the complementary property: the carried taint, if any, must
// be visible to the checksum it rode with.
func (ep *Endpoint) verifyEagerCRC(env *envelope) {
	if ep.integrity == IntegrityVerify {
		ep.charge(ep.checksumTime(env.size))
	}
	if !env.hasCRC || env.pay.Zero() {
		return
	}
	pay := env.pay.Bytes()[:env.size]
	if env.flipMask == 0 && !env.hdrTaint {
		if buf.Sum(pay) != env.crc {
			panic("adi: clean eager payload fails its capture-time checksum")
		}
		return
	}
	if env.flipMask != 0 && env.flipOff < env.size &&
		buf.SumFlipped(pay, env.flipOff, env.flipMask) == env.crc {
		panic("adi: delivered bit flip is invisible to the checksum (escape)")
	}
}

// verifyAssembled runs the receiver-side whole-message check of a completed
// rendezvous transfer: the pass over the assembled buffer against the
// checksum the RTS carried. A mismatch is an escape — with Verify armed
// every corrupt stripe was already suppressed and retransmitted, so the
// assembled bytes must match the sender's capture. Truncated transfers skip
// the compare (the checksum covers more bytes than arrived) but still pay
// the modeled pass under Verify.
// Audit mode skips the compare: corrupted stripes are delivered there by
// design, so a mismatch is the expected signal (tallied via the sender-side
// taint echo), not an escape.
func (ep *Endpoint) verifyAssembled(req *Request) {
	if ep.integrity != IntegrityVerify {
		return
	}
	n := req.n
	ep.charge(ep.checksumTime(n))
	if !req.crcSet || req.data == nil || req.err != nil {
		return
	}
	if buf.Sum(req.data[:n]) != req.crc {
		panic("adi: assembled rendezvous payload fails its whole-message checksum (escape)")
	}
}

// corruptDelivered tallies one corrupted payload reaching application-owned
// memory — the audit trail the silent-corruption study reads. peer may be
// -1 when the completion does not identify the connection (stripe echoes).
func (ep *Endpoint) corruptDelivered(peer, n int) {
	ep.stats.CorruptDeliveries++
	ep.trace(trace.KindCorruptDeliver, peer, n, -1)
}

// nackNoticed books one receiving-HCA integrity rejection surfaced on an
// informational completion. The retransmission already happened below the
// verbs layer — the requester's HCA retries autonomously on the NAK, exempt
// from further corruption — so software neither reposts nor unregisters the
// WR (its inflight entry and callbacks ride the eventual success completion).
// It tallies the NACK, traces it, and books a strike against the rail when
// the reliability layer is armed, so a rail that corrupts persistently is
// quarantined like one missing completion deadlines.
func (ep *Endpoint) nackNoticed(cqe ib.CQE) {
	ep.stats.IntegrityNacks++
	fl, ok := ep.inflight[cqe.WRID]
	if !ok {
		// Untracked WR: tally without connection identity.
		ep.trace(trace.KindIntegrityNack, -1, cqe.Bytes, -1)
		return
	}
	ep.trace(trace.KindIntegrityNack, fl.conn.peer, fl.wr.N, fl.rail)
	if ep.rel != nil {
		ep.strike(fl.conn, fl.rail)
	}
}

// ---- torn-write consume guard ----
//
// The historical consume path trusted the doorbell: an immediate-data
// arrival meant the slot's payload was in place. A torn write — the doorbell
// outrunning the payload body of an eager ring slot (ring.go), the only
// torn-write candidate — would hand the application a stale tail. With
// integrity armed the slot format carries a consistency marker (the wire
// header's trailing sequence byte, re-checked after copy-out); a mismatch
// parks the envelope and re-polls the slot until the payload settles, which
// the model expresses as the slot's tornAt instant.

// tornGuard reports whether a polled arrival is still inconsistent, parking
// the envelope for the settle instant. Only armed integrity modes see a
// nonzero tornAt: disarmed runs deliver the stale-tail image instead.
func (ep *Endpoint) tornGuard(env *envelope) bool {
	if env.tornAt == 0 || env.tornAt <= ep.eng.Now() {
		env.tornAt = 0
		return false
	}
	ep.stats.TornRepolls++
	ep.trace(trace.KindTornRepoll, env.src, env.size, -1)
	ep.tornWait = append(ep.tornWait, env)
	at := env.tornAt
	ep.eng.Post(at, func() { ep.wake() })
	return true
}

// tornReadyEnv pops the next parked envelope whose slot has settled, if any.
func (ep *Endpoint) tornReadyEnv() *envelope {
	if len(ep.tornWait) == 0 || ep.tornWait[0].tornAt > ep.eng.Now() {
		return nil
	}
	env := ep.tornWait[0]
	ep.tornWait[0] = nil
	ep.tornWait = ep.tornWait[1:]
	env.tornAt = 0
	return env
}

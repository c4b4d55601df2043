package chaos

import (
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/sim"
)

// corruptionCases are the hand-written corruption plans. Torn writes only
// exist on the RDMA-write ring, so those plans need it; bit flips and header
// corruption hit both channels and run on send/recv.
func corruptionCases() []oraclePlan {
	return []oraclePlan{
		// Every 7th payload chunk crossing any port picks up a seeded
		// single-bit flip once the streams are in full flight.
		{Plan: BitFlipPlan(20*sim.Microsecond, -1, 7, 0xB17F), verify: true, want: wantNack},
		// Every 9th eager envelope's wire header is mangled (seeded length
		// truncation when nobody is checking).
		{Plan: HeaderCorruptPlan(30*sim.Microsecond, -1, 9, 0x44D2), verify: true, want: wantNack},
		// Every 5th ring eager slot lands with its doorbell ahead of its
		// payload bytes.
		{Plan: TornWritePlan(0, -1, 5, 0x70A2), eager: adi.EagerRDMAWrite, verify: true, want: wantRepoll},
		// Everything at once on the ring channel, composed with a rail flap
		// so NACK retransmits race rail retransmits.
		{Plan: Merge("corrupt-sink",
			BitFlipPlan(20*sim.Microsecond, -1, 11, 0xC0FE),
			TornWritePlan(0, -1, 6, 0x7042),
			RailFlap(120*sim.Microsecond, 300*sim.Microsecond, 1, 3),
		), eager: adi.EagerRDMAWrite, verify: true, want: wantNack},
	}
}

// TestIntegrityAuditSeesCorruption is the negative control: with
// verification disarmed every corruption plan must actually land corrupted
// bytes in user buffers — the workload's own checks report violations and
// the audit tally counts at least one corrupt delivery per plan. This
// proves the oracle array's verify-mode digests are earned by the checksums,
// not by injection silently failing to engage.
func TestIntegrityAuditSeesCorruption(t *testing.T) {
	for _, tc := range corruptionCases() {
		t.Run(tc.Name, func(t *testing.T) {
			for _, mode := range []adi.IntegrityMode{adi.IntegrityOff, adi.IntegrityAudit} {
				res := conform(t, OracleConfig{
					Seed: oracleSeed, Policy: core.EvenStriping, Plan: tc.Plan,
					EagerProto: tc.eager,
					Integrity:  mode,
				})
				if res.CorruptDeliveries == 0 {
					t.Errorf("%v under %s: no corrupt delivery tallied; injection not engaging", mode, tc.Name)
				}
				if len(res.Violations) == 0 {
					t.Errorf("%v under %s: corruption left no mark on the workload", mode, tc.Name)
				}
				if res.IntegrityNacks != 0 {
					t.Errorf("%v under %s: disarmed run NACKed %d times", mode, tc.Name, res.IntegrityNacks)
				}
			}
		})
	}
}

// TestIntegrityAuditTimingMatchesOff pins audit mode's contract: tallying
// is free. An audit run must be bit-identical to the off run — same digest,
// same trace, same elapsed — differing only in the counter block.
func TestIntegrityAuditTimingMatchesOff(t *testing.T) {
	tc := corruptionCases()[0]
	runMode := func(mode adi.IntegrityMode) *RunResult {
		return conform(t, OracleConfig{
			Seed: oracleSeed, Policy: core.RoundRobin, Plan: tc.Plan,
			EagerProto: tc.eager, Integrity: mode,
		})
	}
	off := runMode(adi.IntegrityOff)
	audit := runMode(adi.IntegrityAudit)
	if off.Digest != audit.Digest || off.TraceDigest != audit.TraceDigest || off.Elapsed != audit.Elapsed {
		t.Errorf("audit mode changed the run: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
			off.Digest, audit.Digest, off.TraceDigest, audit.TraceDigest, off.Elapsed, audit.Elapsed)
	}
	if audit.CorruptDeliveries == 0 {
		t.Error("audit run tallied nothing")
	}
	if off.CorruptDeliveries != audit.CorruptDeliveries {
		t.Errorf("off/audit tallies diverge: %d vs %d", off.CorruptDeliveries, audit.CorruptDeliveries)
	}
}

// TestIntegrityCorruptionStrikes mirrors the adi-level reliability tests at
// oracle scale: with both the reliability layer and verification armed, a
// brief corruption burst must strike the rail into suspicion and recovery
// must reintegrate it — with the answer untouched.
func TestIntegrityCorruptionStrikes(t *testing.T) {
	// The flip arms at 20us and disarms at 400us: a transient corruptor, the
	// moral equivalent of a loose cable reseated mid-run.
	plan := Merge("transient-flipper",
		BitFlipPlan(20*sim.Microsecond, -1, 5, 0xFACE),
		&Plan{Events: []Event{{At: 400 * sim.Microsecond, Kind: BitFlipEveryN, Node: -1, Port: -1, N: 0}}},
	)
	res := conformant(t, OracleConfig{
		Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan,
		Integrity: adi.IntegrityVerify,
		Reliability: &adi.ReliabilityConfig{
			Seed:         oracleSeed,
			SuspectAfter: 2,
		},
	})
	if res.IntegrityNacks == 0 {
		t.Error("no NACKs; the flipper never engaged")
	}
	if res.RailSuspects == 0 {
		t.Error("corruption strikes never drove a rail to suspicion")
	}
}

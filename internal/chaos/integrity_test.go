package chaos

import (
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/sim"
)

// corruptionCase pairs a corruption plan with the eager channel that gives
// it targets: torn writes only exist on the RDMA-write ring, while bit
// flips and header corruption hit both channels.
type corruptionCase struct {
	plan  *Plan
	proto adi.EagerProto
}

func corruptionCases() []corruptionCase {
	return []corruptionCase{
		// Every 7th payload chunk crossing any port picks up a seeded
		// single-bit flip once the streams are in full flight.
		{BitFlipPlan(20*sim.Microsecond, -1, 7, 0xB17F), adi.EagerSendRecv},
		// Every 9th eager envelope's wire header is mangled (seeded length
		// truncation when nobody is checking).
		{HeaderCorruptPlan(30*sim.Microsecond, -1, 9, 0x44D2), adi.EagerSendRecv},
		// Every 5th ring eager slot lands with its doorbell ahead of its
		// payload bytes.
		{TornWritePlan(0, -1, 5, 0x70A2), adi.EagerRDMAWrite},
		// Everything at once on the ring channel, composed with a rail flap
		// so NACK retransmits race rail retransmits.
		{Merge("corrupt-sink",
			BitFlipPlan(20*sim.Microsecond, -1, 11, 0xC0FE),
			TornWritePlan(0, -1, 6, 0x7042),
			RailFlap(120*sim.Microsecond, 300*sim.Microsecond, 1, 3),
		), adi.EagerRDMAWrite},
	}
}

// TestDifferentialOracleIntegrity is the headline: with IntegrityVerify
// armed, every corruption plan's payload digest across all six policies must
// be byte-identical to the FAULT-FREE baseline — the receiver catches every
// corrupted chunk by checksum, NACKs it, and the sender's retransmit (exempt
// from further corruption, like a real retry winning a coin toss the model
// makes deterministic) delivers the clean bytes. The checksum machinery may
// only shift time, never bytes: the verify-on/fault-free cell pins that too.
func TestDifferentialOracleIntegrity(t *testing.T) {
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping})
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free with verification armed: checksums charge time on every
	// payload but the answer must not move and nothing may be NACKed.
	clean, err := RunConformance(OracleConfig{
		Seed: oracleSeed, Policy: core.EvenStriping, Integrity: adi.IntegrityVerify,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Digest != base.Digest {
		t.Errorf("verify-on fault-free digest moved: %#x vs %#x", clean.Digest, base.Digest)
	}
	if clean.IntegrityNacks != 0 || clean.CorruptDeliveries != 0 {
		t.Errorf("fault-free run saw integrity traffic: nacks=%d corrupt=%d",
			clean.IntegrityNacks, clean.CorruptDeliveries)
	}
	// (No elapsed comparison: checksum charges shift scheduling decisions,
	// which can move completion time in either direction at workload scale.
	// The per-payload cost itself is pinned by the bench overhead table.)

	for _, tc := range corruptionCases() {
		tc := tc
		t.Run(tc.plan.Name, func(t *testing.T) {
			results, err := harness.MapAll(allPolicies, func(kind core.Kind) (*RunResult, error) {
				return RunConformance(OracleConfig{
					Seed: oracleSeed, Policy: kind, Plan: tc.plan,
					EagerProto: tc.proto,
					Integrity:  adi.IntegrityVerify,
				})
			})
			if err != nil {
				t.Fatalf("verify matrix under %s: %v", tc.plan.Name, err)
			}
			var nacks, repolls, corrupt int64
			for i, res := range results {
				for _, v := range res.Violations {
					t.Errorf("%v under %s: %s", allPolicies[i], tc.plan.Name, v)
				}
				if res.Digest != base.Digest {
					t.Errorf("corruption leaked past verification under %s: %s=%#x vs fault-free %#x",
						tc.plan.Name, res.Policy, res.Digest, base.Digest)
				}
				nacks += res.IntegrityNacks
				repolls += res.TornRepolls
				corrupt += res.CorruptDeliveries
			}
			if corrupt != 0 {
				t.Errorf("verify mode delivered %d corrupted payloads", corrupt)
			}
			switch tc.plan.Name {
			case "torn-write-n-1-every-5":
				if repolls == 0 {
					t.Error("torn plan never forced a doorbell repoll")
				}
			default:
				if nacks == 0 {
					t.Errorf("plan %s never triggered a NACK; injection is not engaging", tc.plan.Name)
				}
			}
		})
	}
}

// TestIntegrityGeneratedPlansConverge feeds seeded corruption-enriched
// random plans (GenerateCorrupting) through all policies with verification
// armed: every cell must still reproduce the fault-free digest.
func TestIntegrityGeneratedPlansConverge(t *testing.T) {
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		kind core.Kind
		plan *Plan
	}
	var cells []cell
	for seed := int64(1); seed <= 3; seed++ {
		plan := GenerateCorrupting(seed, 900*sim.Microsecond, 2, 4, 1)
		for _, kind := range allPolicies {
			cells = append(cells, cell{kind, plan})
		}
	}
	results, err := harness.Map(cells, func(c cell) (*RunResult, error) {
		return RunConformance(OracleConfig{
			Seed: oracleSeed, Policy: c.kind, Plan: c.plan,
			EagerProto: adi.EagerRDMAWrite,
			Integrity:  adi.IntegrityVerify,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var nacks int64
	for i, res := range results {
		for _, v := range res.Violations {
			t.Errorf("%v under %s: %s", cells[i].kind, cells[i].plan.Name, v)
		}
		if res.Digest != base.Digest {
			t.Errorf("digest split under %s: %s=%#x vs fault-free %#x",
				cells[i].plan.Name, res.Policy, res.Digest, base.Digest)
		}
		nacks += res.IntegrityNacks
	}
	if nacks == 0 {
		t.Error("no generated plan ever triggered a NACK; GenerateCorrupting is toothless")
	}
}

// TestIntegritySerialParallelIdentical pins the harness contract for the
// integrity layer: the heaviest corruption row run on one worker and on many
// must yield bit-identical digests, trace digests, and elapsed times.
func TestIntegritySerialParallelIdentical(t *testing.T) {
	tc := corruptionCases()[3] // corrupt-sink
	run := func(workers int) []*RunResult {
		res, err := harness.MapN(workers, allPolicies, func(kind core.Kind) (*RunResult, error) {
			return RunConformance(OracleConfig{
				Seed: oracleSeed, Policy: kind, Plan: tc.plan,
				EagerProto: tc.proto,
				Integrity:  adi.IntegrityVerify,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Digest != p.Digest || s.TraceDigest != p.TraceDigest || s.Elapsed != p.Elapsed {
			t.Errorf("integrity %s: serial/parallel diverge: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
				s.Policy, s.Digest, p.Digest, s.TraceDigest, p.TraceDigest, s.Elapsed, p.Elapsed)
		}
		if s.IntegrityNacks != p.IntegrityNacks || s.TornRepolls != p.TornRepolls {
			t.Errorf("integrity %s: counters diverge: nacks %d/%d repolls %d/%d",
				s.Policy, s.IntegrityNacks, p.IntegrityNacks, s.TornRepolls, p.TornRepolls)
		}
	}
}

// TestIntegrityAuditSeesCorruption is the negative control: with
// verification disarmed every corruption plan must actually land corrupted
// bytes in user buffers — the workload's own checks report violations and
// the audit tally counts at least one corrupt delivery per plan. This
// proves the verify-mode digests above are earned by the checksum machinery,
// not by injection silently failing to engage.
func TestIntegrityAuditSeesCorruption(t *testing.T) {
	for _, tc := range corruptionCases() {
		tc := tc
		t.Run(tc.plan.Name, func(t *testing.T) {
			for _, mode := range []adi.IntegrityMode{adi.IntegrityOff, adi.IntegrityAudit} {
				res, err := RunConformance(OracleConfig{
					Seed: oracleSeed, Policy: core.EvenStriping, Plan: tc.plan,
					EagerProto: tc.proto,
					Integrity:  mode,
				})
				if err != nil {
					t.Fatalf("%v under %s: %v", mode, tc.plan.Name, err)
				}
				if res.CorruptDeliveries == 0 {
					t.Errorf("%v under %s: no corrupt delivery tallied; injection not engaging", mode, tc.plan.Name)
				}
				if len(res.Violations) == 0 {
					t.Errorf("%v under %s: corruption left no mark on the workload", mode, tc.plan.Name)
				}
				if res.IntegrityNacks != 0 {
					t.Errorf("%v under %s: disarmed run NACKed %d times", mode, tc.plan.Name, res.IntegrityNacks)
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
		res, err := RunConformance(OracleConfig{
			Seed: oracleSeed, Policy: core.RoundRobin, Plan: tc.plan,
			EagerProto: tc.proto, Integrity: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
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
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping})
	if err != nil {
		t.Fatal(err)
	}
	// The flip arms at 20us and disarms at 400us: a transient corruptor, the
	// moral equivalent of a loose cable reseated mid-run.
	plan := Merge("transient-flipper",
		BitFlipPlan(20*sim.Microsecond, -1, 5, 0xFACE),
		&Plan{Events: []Event{{At: 400 * sim.Microsecond, Kind: BitFlipEveryN, Node: -1, Port: -1, N: 0}}},
	)
	res, err := RunConformance(OracleConfig{
		Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan,
		Integrity: adi.IntegrityVerify,
		Reliability: &adi.ReliabilityConfig{
			Seed:         oracleSeed,
			SuspectAfter: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Digest != base.Digest {
		t.Errorf("corruption strikes changed the answer: %#x vs %#x", res.Digest, base.Digest)
	}
	if res.IntegrityNacks == 0 {
		t.Error("no NACKs; the flipper never engaged")
	}
	if res.RailSuspects == 0 {
		t.Error("corruption strikes never drove a rail to suspicion")
	}
}

package chaos

import (
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/harness"
)

// TestDifferentialOracleRDMAEager runs the seeded workload with the
// RDMA-write eager channel across the full 6-policy x 6-fault-plan matrix
// and requires every cell's payload digest to be byte-identical to the
// send/recv baseline of the same plan. The ring moves every small message
// onto a different transport path — per-peer slot arrays, polling-set
// receive, header-cache-compressed wire headers, slot-credit flow control,
// send/recv fallback under exhaustion and rail death — but both channels
// share the per-connection sequence space, so the user-visible bytes must
// not move even while rails die, stall, and flap. Zero violations also pins
// World.BufLive()==0 after quiesce: RunConformance records any
// still-referenced payload block as a violation.
func TestDifferentialOracleRDMAEager(t *testing.T) {
	for _, plan := range faultPlans() {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			ref, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan})
			if err != nil {
				t.Fatalf("send/recv baseline under %s: %v", plan.Name, err)
			}
			results, err := harness.MapAll(allPolicies, func(kind core.Kind) (*RunResult, error) {
				return RunConformance(OracleConfig{
					Seed: oracleSeed, Policy: kind, Plan: plan,
					EagerProto: adi.EagerRDMAWrite,
				})
			})
			if err != nil {
				t.Fatalf("ring matrix under %s: %v", plan.Name, err)
			}
			for i, res := range results {
				for _, v := range res.Violations {
					t.Errorf("ring %v under %s: %s", allPolicies[i], plan.Name, v)
				}
				if res.Digest != ref.Digest {
					t.Errorf("ring digest split under %s: send/recv=%#x vs ring %s=%#x",
						plan.Name, ref.Digest, res.Policy, res.Digest)
				}
			}
		})
	}
}

// TestRDMAEagerSerialParallelIdentical pins the harness contract for the
// ring channel: the same ring matrix row run on one worker and on many must
// yield bit-identical digests, trace digests, and elapsed virtual times
// cell by cell.
func TestRDMAEagerSerialParallelIdentical(t *testing.T) {
	plan := faultPlans()[5] // kitchen sink: the most event-heavy plan
	run := func(workers int) []*RunResult {
		res, err := harness.MapN(workers, allPolicies, func(kind core.Kind) (*RunResult, error) {
			return RunConformance(OracleConfig{
				Seed: oracleSeed, Policy: kind, Plan: plan,
				EagerProto: adi.EagerRDMAWrite,
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
			t.Errorf("ring %s: serial/parallel diverge: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
				s.Policy, s.Digest, p.Digest, s.TraceDigest, p.TraceDigest, s.Elapsed, p.Elapsed)
		}
	}
}

package chaos

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/mpi"
)

// TestDifferentialOracleLaneColl runs the seeded workload with the
// lane-decomposed collectives across the full 6-policy x 6-fault-plan
// matrix and requires every cell's payload digest to be byte-identical to
// the striped baseline of the same plan. The workload's collective phase
// uses only exact operators (int64 Sum/Max), so lane decomposition — a
// different communication schedule, not different arithmetic — must be
// invisible in the user-visible bytes even while rails die, stall, and
// flap mid-collective. Zero violations also pins World.BufLive()==0 after
// quiesce: RunConformance records any still-referenced payload block as a
// violation.
func TestDifferentialOracleLaneColl(t *testing.T) {
	for _, plan := range faultPlans() {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			ref, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping, Plan: plan})
			if err != nil {
				t.Fatalf("striped baseline under %s: %v", plan.Name, err)
			}
			results, err := harness.MapAll(allPolicies, func(kind core.Kind) (*RunResult, error) {
				return RunConformance(OracleConfig{
					Seed: oracleSeed, Policy: kind, Plan: plan,
					CollAlg: mpi.CollLane,
				})
			})
			if err != nil {
				t.Fatalf("lane matrix under %s: %v", plan.Name, err)
			}
			for i, res := range results {
				for _, v := range res.Violations {
					t.Errorf("lane %v under %s: %s", allPolicies[i], plan.Name, v)
				}
				if res.Digest != ref.Digest {
					t.Errorf("lane digest split under %s: striped=%#x vs lane %s=%#x",
						plan.Name, ref.Digest, res.Policy, res.Digest)
				}
			}
		})
	}
}

// TestLaneCollSerialParallelIdentical pins the harness contract for the
// lane algorithms: the same lane-collective matrix row run on one worker
// and on many must yield bit-identical digests, trace digests, and
// elapsed virtual times cell by cell.
func TestLaneCollSerialParallelIdentical(t *testing.T) {
	plan := faultPlans()[5] // kitchen sink: the most event-heavy plan
	run := func(workers int) []*RunResult {
		res, err := harness.MapN(workers, allPolicies, func(kind core.Kind) (*RunResult, error) {
			return RunConformance(OracleConfig{
				Seed: oracleSeed, Policy: kind, Plan: plan,
				CollAlg: mpi.CollLane,
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
			t.Errorf("lane %s: serial/parallel diverge: digest %#x/%#x trace %#x/%#x elapsed %v/%v",
				s.Policy, s.Digest, p.Digest, s.TraceDigest, p.TraceDigest, s.Elapsed, p.Elapsed)
		}
	}
}

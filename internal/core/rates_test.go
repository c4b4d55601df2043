package core

import (
	"testing"
)

// ratedPlan is the weighted policy's bulk plan on a connection whose rails
// run at rates of their nominal link rate.
func ratedPlan(size, rails int, weights, rates []float64, dead RailMask) []Stripe {
	return NewWeighted(4096, weights).PlanBulk(Blocking, size, rails, &ConnState{Rates: rates, Dead: dead})
}

func railBytes(pl []Stripe, rails int) []int {
	out := make([]int, rails)
	for _, s := range pl {
		out[s.Rail] += s.N
	}
	return out
}

// TestWeightedRatesProportions pins the partial-degradation contract: with
// rail 1 running at half rate, the rate-weighted plan gives rail 0 twice the
// bytes of rail 1 (within min-stripe rounding).
func TestWeightedRatesProportions(t *testing.T) {
	const size = 384 * 1024
	pl := ratedPlan(size, 2, nil, []float64{1, 0.5}, 0)
	got := railBytes(pl, 2)
	if got[0]+got[1] != size {
		t.Fatalf("plan covers %d bytes, want %d", got[0]+got[1], size)
	}
	ratio := float64(got[0]) / float64(got[1])
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("rail split %d:%d (ratio %.2f), want ~2:1 for a 2:1 rate split", got[0], got[1], ratio)
	}
}

// TestWeightedRatesComposesWithWeightsAndDead checks that rate scaling
// multiplies the configured weights and still respects the dead-rail mask.
func TestWeightedRatesComposesWithWeightsAndDead(t *testing.T) {
	const size = 256 * 1024
	// Weights 3:1 on rails {0,1}, rail 0 degraded to 1/3 rate -> effective
	// 1:1 split.
	pl := ratedPlan(size, 2, []float64{3, 1}, []float64{1.0 / 3.0, 1}, 0)
	got := railBytes(pl, 2)
	ratio := float64(got[0]) / float64(got[1])
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("rail split %d:%d (ratio %.2f), want ~1:1", got[0], got[1], ratio)
	}
	// With rail 0 dead, everything lands on rail 1 regardless of rates.
	var dead RailMask
	dead.MarkDown(0)
	pl = ratedPlan(size, 2, nil, []float64{1, 0.25}, dead)
	for _, s := range pl {
		if s.Rail != 1 {
			t.Fatalf("stripe on dead rail 0: %+v", s)
		}
	}
}

// TestWeightedPolicyRatesBypassCache pins the memoization contract: a nil
// Rates vector uses the (size, rails, dead)-keyed plan cache; a non-nil one
// must compute a fresh rate-scaled plan, not serve the cached uniform plan.
func TestWeightedPolicyRatesBypassCache(t *testing.T) {
	p := New(WeightedStriping, 4096)
	const size = 384 * 1024
	uniform := p.PlanBulk(Blocking, size, 2, &ConnState{})
	degraded := p.PlanBulk(Blocking, size, 2, &ConnState{Rates: []float64{1, 0.5}})
	ub, db := railBytes(uniform, 2), railBytes(degraded, 2)
	if ub[0] != ub[1] {
		t.Fatalf("uniform weighted plan uneven: %v", ub)
	}
	if db[0] == db[1] {
		t.Errorf("degraded plan equals uniform plan %v: Rates ignored (stale cache hit?)", db)
	}
	// And the cache itself must stay uncontaminated by the degraded call.
	again := p.PlanBulk(Blocking, size, 2, &ConnState{})
	ab := railBytes(again, 2)
	if ab[0] != ab[1] {
		t.Errorf("uniform plan after degraded call uneven %v: cache contaminated", ab)
	}
}

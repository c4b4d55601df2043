package core

import (
	"testing"
	"testing/quick"
)

// TestParsePolicy covers every Kind and every alias ParseKind accepts.
func TestParsePolicy(t *testing.T) {
	cases := map[string]Kind{
		"original": Original, "orig": Original,
		"binding": Binding, "bind": Binding, "rr": RoundRobin,
		"roundrobin": RoundRobin, "round-robin": RoundRobin,
		"striping": EvenStriping, "stripe": EvenStriping, "even-striping": EvenStriping,
		"weighted": WeightedStriping, "EPC": EPC, "epc": EPC,
		"adaptive": Adaptive, "Adaptive": Adaptive,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestClassString(t *testing.T) {
	if Blocking.String() != "blocking" || NonBlocking.String() != "non-blocking" || Collective.String() != "collective" {
		t.Error("class strings wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class string wrong")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Original: "original", Binding: "binding", RoundRobin: "round robin",
		EvenStriping: "even striping", WeightedStriping: "weighted striping", EPC: "EPC",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// clonePlan snapshots a PlanBulk result, which is otherwise valid only until
// the next PlanBulk call on the same policy/connection.
func clonePlan(p []Stripe) []Stripe {
	out := make([]Stripe, len(p))
	copy(out, p)
	return out
}

func planCovers(t *testing.T, plan []Stripe, size, rails int) {
	t.Helper()
	off := 0
	for i, s := range plan {
		if s.Off != off {
			t.Fatalf("stripe %d at offset %d, want %d (plan %v)", i, s.Off, off, plan)
		}
		if s.N <= 0 && size > 0 {
			t.Fatalf("stripe %d empty (plan %v)", i, plan)
		}
		if s.Rail < 0 || s.Rail >= rails {
			t.Fatalf("stripe %d on rail %d of %d", i, s.Rail, rails)
		}
		off += s.N
	}
	if off != size {
		t.Fatalf("plan covers %d of %d bytes", off, size)
	}
}

func TestBindingAlwaysBoundRail(t *testing.T) {
	p := New(Binding, 4096)
	st := &ConnState{Bound: 2}
	for i := 0; i < 5; i++ {
		if r := p.PickEager(NonBlocking, 1024, 4, st); r != 2 {
			t.Fatalf("eager rail = %d, want 2", r)
		}
	}
	plan := p.PlanBulk(Blocking, 1<<20, 4, st)
	if len(plan) != 1 || plan[0].Rail != 2 {
		t.Errorf("bulk plan = %v, want single stripe on rail 2", plan)
	}
	planCovers(t, plan, 1<<20, 4)
}

func TestBindingClampsOutOfRange(t *testing.T) {
	p := New(Binding, 4096)
	st := &ConnState{Bound: 7}
	if r := p.PickEager(Blocking, 64, 4, st); r != 0 {
		t.Errorf("out-of-range bound rail = %d, want clamp to 0", r)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := New(RoundRobin, 4096)
	st := &ConnState{}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, p.PickEager(NonBlocking, 1024, 4, st))
	}
	for i, r := range got {
		if r != i%4 {
			t.Fatalf("sequence %v not cyclic over 4 rails", got)
		}
	}
	// Bulk messages also travel whole, on consecutive rails. Plans are only
	// valid until the next PlanBulk on the same connection, so copy.
	p1 := clonePlan(p.PlanBulk(NonBlocking, 1<<20, 4, st))
	p2 := clonePlan(p.PlanBulk(NonBlocking, 1<<20, 4, st))
	if len(p1) != 1 || len(p2) != 1 || p2[0].Rail != (p1[0].Rail+1)%4 {
		t.Errorf("bulk plans %v then %v: want whole messages on consecutive rails", p1, p2)
	}
}

func TestEvenStripingDividesEqually(t *testing.T) {
	p := New(EvenStriping, 4096)
	plan := p.PlanBulk(Blocking, 1<<20, 4, &ConnState{})
	if len(plan) != 4 {
		t.Fatalf("plan = %v, want 4 stripes", plan)
	}
	planCovers(t, plan, 1<<20, 4)
	for _, s := range plan {
		if s.N != 1<<18 {
			t.Errorf("stripe %v, want 256 KB each", s)
		}
	}
}

func TestEvenStripingRespectsMinStripe(t *testing.T) {
	// 16 KB with 4 KB minimum across 8 rails: only 4 stripes.
	plan := EvenStripes(16*1024, 8, 4*1024)
	if len(plan) != 4 {
		t.Fatalf("plan = %v, want 4 stripes of 4 KB", plan)
	}
	planCovers(t, plan, 16*1024, 8)
	// 6 KB: just one stripe (6/4 = 1).
	plan = EvenStripes(6*1024, 8, 4*1024)
	if len(plan) != 1 {
		t.Fatalf("plan = %v, want 1 stripe", plan)
	}
}

func TestEvenStripesRemainderSpread(t *testing.T) {
	plan := EvenStripes(10, 3, 1)
	planCovers(t, plan, 10, 3)
	if plan[0].N != 4 || plan[1].N != 3 || plan[2].N != 3 {
		t.Errorf("plan = %v, want sizes 4,3,3", plan)
	}
}

func TestEvenStripesProperty(t *testing.T) {
	f := func(size uint32, rails, minStripe uint8) bool {
		sz := int(size % (4 << 20))
		if sz == 0 {
			sz = 1
		}
		r := int(rails%8) + 1
		ms := int(minStripe) * 64
		plan := EvenStripes(sz, r, ms)
		off := 0
		maxN, minN := 0, sz+1
		for _, s := range plan {
			if s.Off != off || s.N <= 0 || s.Rail < 0 || s.Rail >= r {
				return false
			}
			off += s.N
			if s.N > maxN {
				maxN = s.N
			}
			if s.N < minN {
				minN = s.N
			}
		}
		// Exact cover, balanced within one byte, min-stripe respected
		// (single-stripe plans excepted).
		if off != sz || maxN-minN > 1 {
			return false
		}
		if len(plan) > 1 && ms > 0 && minN < ms {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEPCDispatchMatrix(t *testing.T) {
	p := New(EPC, 4096)
	const size = 1 << 20

	// Blocking bulk → striped across all rails.
	plan := p.PlanBulk(Blocking, size, 4, &ConnState{})
	if len(plan) != 4 {
		t.Errorf("blocking bulk plan = %v, want 4 stripes", plan)
	}
	planCovers(t, plan, size, 4)

	// Non-blocking bulk → whole message, round robin (copy: the plan slot
	// is reused by the next call on the same connection).
	st := &ConnState{}
	p1 := clonePlan(p.PlanBulk(NonBlocking, size, 4, st))
	p2 := clonePlan(p.PlanBulk(NonBlocking, size, 4, st))
	if len(p1) != 1 || len(p2) != 1 {
		t.Fatalf("non-blocking plans %v, %v: want whole messages", p1, p2)
	}
	if p2[0].Rail == p1[0].Rail {
		t.Error("non-blocking bulk should cycle rails")
	}

	// Collective bulk → striped despite being non-blocking calls (§3.2.2).
	plan = p.PlanBulk(Collective, size, 4, &ConnState{})
	if len(plan) != 4 {
		t.Errorf("collective bulk plan = %v, want 4 stripes", plan)
	}

	// Blocking eager → single fixed rail; non-blocking eager → cycles.
	st2 := &ConnState{}
	if a, b := p.PickEager(Blocking, 64, 4, st2), p.PickEager(Blocking, 64, 4, st2); a != b {
		t.Error("blocking eager should stay on one rail")
	}
	st3 := &ConnState{}
	if a, b := p.PickEager(NonBlocking, 64, 4, st3), p.PickEager(NonBlocking, 64, 4, st3); a == b {
		t.Error("non-blocking eager should cycle rails")
	}
}

func TestEPCWithSingleRailDegeneratesToOriginal(t *testing.T) {
	p := New(EPC, 4096)
	st := &ConnState{}
	for i := 0; i < 4; i++ {
		if r := p.PickEager(NonBlocking, 1024, 1, st); r != 0 {
			t.Fatalf("single-rail eager on rail %d", r)
		}
	}
	plan := p.PlanBulk(Blocking, 1<<20, 1, st)
	if len(plan) != 1 || plan[0].Rail != 0 {
		t.Errorf("single-rail plan = %v", plan)
	}
}

func TestWeightedStripesProportional(t *testing.T) {
	plan := WeightedStripes(1<<20, 2, 1024, []float64{3, 1})
	planCovers(t, plan, 1<<20, 2)
	if len(plan) != 2 {
		t.Fatalf("plan = %v", plan)
	}
	ratio := float64(plan[0].N) / float64(plan[1].N)
	if ratio < 2.9 || ratio > 3.1 {
		t.Errorf("stripe ratio = %g, want ~3", ratio)
	}
}

func TestWeightedStripesDropsTinyShares(t *testing.T) {
	// 8 KB split 15:1 with 4 KB min: the 512-byte share is dropped.
	plan := WeightedStripes(8*1024, 2, 4*1024, []float64{15, 1})
	if len(plan) != 1 || plan[0].Rail != 0 {
		t.Fatalf("plan = %v, want single stripe on rail 0", plan)
	}
	planCovers(t, plan, 8*1024, 2)
}

func TestWeightedStripesDefaultsToEven(t *testing.T) {
	plan := WeightedStripes(1<<20, 4, 1024, nil)
	planCovers(t, plan, 1<<20, 4)
	if len(plan) != 4 {
		t.Fatalf("plan = %v, want 4 stripes", plan)
	}
}

func TestZeroSizePlans(t *testing.T) {
	for _, k := range []Kind{Original, Binding, RoundRobin, EvenStriping, EPC} {
		p := New(k, 4096)
		plan := p.PlanBulk(Blocking, 0, 4, &ConnState{})
		if len(plan) != 1 || plan[0].N != 0 {
			t.Errorf("%v zero-size plan = %v", k, plan)
		}
	}
}

func TestOriginalIsRailZero(t *testing.T) {
	p := New(Original, 4096)
	st := &ConnState{}
	if p.Name() != "original" {
		t.Errorf("Name = %q", p.Name())
	}
	if r := p.PickEager(NonBlocking, 1024, 1, st); r != 0 {
		t.Errorf("original eager rail = %d", r)
	}
	plan := p.PlanBulk(Blocking, 1<<20, 1, st)
	if len(plan) != 1 || plan[0].Rail != 0 {
		t.Errorf("original plan = %v", plan)
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind must panic")
		}
	}()
	New(Kind(99), 0)
}

func TestAdaptivePolicyByDepth(t *testing.T) {
	p := New(Adaptive, 4096)
	if p.Name() != "adaptive" {
		t.Errorf("Name = %q", p.Name())
	}
	// Empty pipeline: stripes like EPC-blocking.
	st := &ConnState{Outstanding: 0}
	plan := p.PlanBulk(NonBlocking, 1<<20, 4, st)
	if len(plan) != 4 {
		t.Errorf("idle pipeline plan = %v, want 4 stripes", plan)
	}
	planCovers(t, plan, 1<<20, 4)
	// Deep pipeline: whole messages round robin.
	st = &ConnState{Outstanding: 3}
	p1 := clonePlan(p.PlanBulk(NonBlocking, 1<<20, 4, st))
	p2 := clonePlan(p.PlanBulk(NonBlocking, 1<<20, 4, st))
	if len(p1) != 1 || len(p2) != 1 || p1[0].Rail == p2[0].Rail {
		t.Errorf("deep pipeline plans %v, %v: want cycling whole messages", p1, p2)
	}
	// Eager placement follows the same rule.
	st = &ConnState{Outstanding: 0}
	if a, b := p.PickEager(NonBlocking, 64, 4, st), p.PickEager(NonBlocking, 64, 4, st); a != b {
		t.Error("idle eager should stay on the bound rail")
	}
	st = &ConnState{Outstanding: 5}
	if a, b := p.PickEager(NonBlocking, 64, 4, st), p.PickEager(NonBlocking, 64, 4, st); a == b {
		t.Error("deep eager should cycle rails")
	}
}

func TestPlanCacheReturnsEqualPlans(t *testing.T) {
	// Memoized striped plans must be byte-for-byte what the planner builds.
	p := New(EvenStriping, 4096)
	for _, size := range []int{32 << 10, 1 << 20, 32 << 10, 1 << 20} {
		got := p.PlanBulk(Blocking, size, 4, &ConnState{})
		want := EvenStripes(size, 4, 4096)
		if len(got) != len(want) {
			t.Fatalf("size %d: plan %v, want %v", size, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d stripe %d: %v, want %v", size, i, got[i], want[i])
			}
		}
	}
}

func TestPlanCacheBounded(t *testing.T) {
	// A sweep over more distinct sizes than the cache bound must reset the
	// map rather than grow it without limit.
	p := New(EvenStriping, 1).(*stripingPolicy)
	for size := 1; size <= planCacheMax+100; size++ {
		p.PlanBulk(Blocking, size, 4, &ConnState{})
	}
	if n := len(p.cache.m); n > planCacheMax {
		t.Fatalf("cache grew to %d entries, bound is %d", n, planCacheMax)
	}
}

func TestSingleStripePlansUseScratch(t *testing.T) {
	// Whole-message plans are served from the connection's scratch slot:
	// no allocation, and the next call on the same conn reuses the slot.
	p := New(RoundRobin, 4096)
	st := &ConnState{}
	p1 := p.PlanBulk(NonBlocking, 1024, 4, st)
	p2 := p.PlanBulk(NonBlocking, 2048, 4, st)
	if &p1[0] != &p2[0] {
		t.Error("single-stripe plans on one conn should share the scratch slot")
	}
	if p2[0].N != 2048 {
		t.Errorf("scratch plan N = %d, want 2048", p2[0].N)
	}
	// Distinct connections have distinct slots.
	st2 := &ConnState{}
	q := p.PlanBulk(NonBlocking, 512, 4, st2)
	if &q[0] == &p2[0] {
		t.Error("different conns must not share scratch slots")
	}
}

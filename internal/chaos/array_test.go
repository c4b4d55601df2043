package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/harness"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// The differential oracle is one generated array. Every cell runs the seeded
// workload under one policy, one plan and one value of each feature axis,
// and must reproduce the fault-free digest: policies, channels, caches,
// collective algorithms, checksums and routes move bytes in time, never in
// content or matching order.

// A feature axis; a cell holds one value index per axis.
type axis int

const (
	axEager     axis = iota // send/recv, RDMA-write ring
	axRel                   // the plan's default reliability, the seeded config
	axCache                 // registration cache off, regCacheConfig()
	axColl                  // mpi.CollStriped, mpi.CollLane
	axIntegrity             // off, IntegrityVerify
	axFabric                // index into fabrics
	nAxes
)

var binaryNames = [axFabric][2]string{{"sendrecv", "ring"}, {"", "seeded"}, {"", "cache"}, {"", "lane"}, {"", "verify"}}

// rowWant is what a plan's row, summed over its cells, must show.
type rowWant int

const (
	wantNothing     rowWant = iota
	wantQuarantine          // the dead rail is quarantined
	wantReintegrate         // the flapped rail is quarantined and reintegrated
	wantNack                // corruption is NACKed
	wantRepoll              // torn ring slots are re-polled
)

// oraclePlan is one value of the plan axis with what it demands of a cell.
type oraclePlan struct {
	*Plan
	eager  adi.EagerProto // EagerRDMAWrite: needs the ring
	verify bool           // corrupting: needs IntegrityVerify
	trunk  bool           // needs a trunked fabric
	routed bool           // also runs on the trunked fabrics, not only the flat one
	want   rowWant
}

var oraclePlans = slices.Concat(routedPlans(), corruptionCases(), generatedPlans(), generatedCorruptingPlans())

func generatedPlans() []oraclePlan { return seeded(Generate, oraclePlan{}) }
func generatedCorruptingPlans() []oraclePlan {
	return seeded(GenerateCorrupting, oraclePlan{eager: adi.EagerRDMAWrite, verify: true, want: wantNack})
}

// seeded draws plans 1–3 of a generator over the 2-node, 4-rail default.
func seeded(gen func(int64, sim.Time, int, int, int) *Plan, p oraclePlan) (ps []oraclePlan) {
	for seed := int64(1); seed <= 3; seed++ {
		p.Plan = gen(seed, 900*sim.Microsecond, 2, 4, 1)
		ps = append(ps, p)
	}
	return ps
}

func names(ps []oraclePlan) (ns []string) {
	for _, p := range ps {
		ns = append(ns, p.Name)
	}
	return ns
}

// fabricValue is one value of the fabric axis: the flat 2×2 single switch
// (shape.set == nil) or a routedShape at 4×1, each under either routing.
type fabricValue struct {
	shape   routedShape
	routing fabric.Routing
}

var fabrics = func() []fabricValue {
	var fs []fabricValue
	for _, sh := range append([]routedShape{{name: "flat"}}, routedShapes()...) {
		fs = append(fs, fabricValue{sh, fabric.RouteStatic}, fabricValue{sh, fabric.RouteAdaptive})
	}
	return fs
}()

func (f fabricValue) trunked() bool { return f.shape.set != nil }

type cell struct {
	policy core.Kind
	plan   int // index into oraclePlans
	f      [nAxes]int
}

// valid is the array's one constraint predicate.
func valid(c cell) bool {
	pl, fab := oraclePlans[c.plan], fabrics[c.f[axFabric]]
	switch {
	case pl.verify && c.f[axIntegrity] == 0,
		pl.eager != adi.EagerSendRecv && c.f[axEager] == 0,
		pl.trunk && !fab.trunked(),
		!fab.trunked() && fab.routing != fabric.RouteStatic: // routing varies only on trunks
		return false
	}
	return true
}

// force sets the axes the cell's plan dictates.
func (c *cell) force() {
	if oraclePlans[c.plan].eager != adi.EagerSendRecv {
		c.f[axEager] = 1
	}
	if oraclePlans[c.plan].verify {
		c.f[axIntegrity] = 1
	}
}

func (c cell) String() string {
	parts := []string{c.policy.String(), oraclePlans[c.plan].Name}
	for a, vals := range binaryNames {
		if n := vals[c.f[a]]; n != "" {
			parts = append(parts, n)
		}
	}
	fab := fabrics[c.f[axFabric]]
	return strings.Join(append(parts, fab.shape.name+"/"+fab.routing.String()), " ")
}

func (c cell) config() OracleConfig {
	fab := fabrics[c.f[axFabric]]
	cfg := OracleConfig{Seed: oracleSeed, Policy: c.policy, Plan: oraclePlans[c.plan].Plan,
		CollAlg: []mpi.CollAlg{mpi.CollStriped, mpi.CollLane}[c.f[axColl]], Routing: fab.routing}
	if c.f[axEager] == 1 {
		cfg.EagerProto = adi.EagerRDMAWrite
	}
	if c.f[axRel] == 1 {
		cfg.Reliability = &adi.ReliabilityConfig{Seed: oracleSeed}
	}
	if c.f[axCache] == 1 {
		cfg.RegCache = regCacheConfig()
	}
	if c.f[axIntegrity] == 1 {
		cfg.Integrity = adi.IntegrityVerify
	}
	if fab.trunked() {
		cfg.Nodes, cfg.ProcsPerNode = 4, 1
		fab.shape.set(&cfg)
	}
	return cfg
}

// generate emits one cell per (policy, plan, fabric) the plan runs on. A
// flat-only row keeps every binary axis at the value its plan forces (zero
// otherwise). A routed row takes its binary axes from consecutive rows of an
// eight-row orthogonal array (three free bits and two of their parities),
// started at an offset that moves with policy and plan: each row then shows
// both values of every axis, and the array crosses every pair of features.
func generate() []cell {
	var cells []cell
	for pi, pl := range oraclePlans {
		for k, pol := range allPolicies {
			j := 0
			for fi, fab := range fabrics {
				c := cell{policy: pol, plan: pi}
				if pl.routed {
					r := j + k + pi
					a, b, d := r&1, r>>1&1, r>>2&1
					c.f = [nAxes]int{a, b, d, a ^ b, a ^ d}
				} else if fab.trunked() {
					continue
				}
				c.f[axFabric] = fi
				c.force()
				if valid(c) {
					cells = append(cells, c)
					j++
				}
			}
		}
	}
	return cells
}

// legacySlice is one of the fifteen hand-written tests the array replaced:
// it ran every policy under each of its plans with the zero value on every
// axis but ax, which took each of vals, and the values its plans force. Its
// test name survives as a filter over the array's results.
type legacySlice struct {
	name   string
	plans  []string
	ax     axis
	vals   []int
	serial bool // a serial/parallel twin: also compare with the one-worker rerun
}

func (s legacySlice) holds(c cell) bool {
	return slices.Contains(s.plans, oraclePlans[c.plan].Name) && slices.Contains(s.vals, c.f[s.ax])
}

func legacySlices() []legacySlice {
	var trunked []int
	for i, f := range fabrics {
		if f.trunked() {
			trunked = append(trunked, i)
		}
	}
	fault, routed := names(faultPlans()), names(routedPlans())
	// The integrity matrix also ran a fault-free Verify cell (one policy;
	// all six here).
	corrupt := append([]string{"no-faults"}, names(corruptionCases())...)
	kitchen, sink := []string{"kitchen-sink"}, []string{"corrupt-sink"}
	return []legacySlice{
		{"TestDifferentialOracle", fault, axRel, []int{0}, false},
		{"TestSelfHealingDifferentialOracle", fault, axRel, []int{1}, false},
		{"TestDifferentialOracleRDMAEager", fault, axEager, []int{1}, false},
		{"TestDifferentialOracleRegCache", fault, axCache, []int{1}, false},
		{"TestDifferentialOracleLaneColl", fault, axColl, []int{1}, false},
		{"TestDifferentialOracleIntegrity", corrupt, axIntegrity, []int{1}, false},
		{"TestDifferentialOracleRouting", routed, axFabric, trunked, false},
		{"TestGeneratedPlansConverge", names(generatedPlans()), axFabric, []int{0}, false},
		{"TestIntegrityGeneratedPlansConverge", names(generatedCorruptingPlans()), axIntegrity, []int{1}, false},
		{"TestConformanceSerialParallelIdentical", kitchen, axRel, []int{0}, true},
		{"TestRDMAEagerSerialParallelIdentical", kitchen, axEager, []int{1}, true},
		{"TestRegCacheConformanceSerialParallelIdentical", kitchen, axCache, []int{1}, true},
		{"TestLaneCollSerialParallelIdentical", kitchen, axColl, []int{1}, true},
		{"TestRoutingSerialParallelIdentical", kitchen, axFabric, trunked, true},
		{"TestIntegritySerialParallelIdentical", sink, axIntegrity, []int{1}, true},
	}
}

// tuple is a (policy, plan, axis=value) triple (b = -1) or an
// (axis=value, axis=value) pair (policy and plan -1).
type tuple struct{ policy, plan, a, v, b, w int }

func (c cell) tuples() []tuple {
	var ts []tuple
	for a := range nAxes {
		ts = append(ts, tuple{int(c.policy), c.plan, int(a), c.f[a], -1, -1})
		for b := a + 1; b < nAxes; b++ {
			ts = append(ts, tuple{-1, -1, int(a), c.f[a], int(b), c.f[b]})
		}
	}
	return ts
}

// required lists the tuples the array must cover: (a) every triple some
// cell of a legacy slice ran and (b) every pair of values on two feature
// axes that some valid cell holds.
func required() map[tuple]bool {
	need := map[tuple]bool{}
	add := func(c cell, triples bool) {
		for _, tp := range c.tuples() {
			if (tp.b < 0) == triples {
				need[tp] = true
			}
		}
	}
	for _, s := range legacySlices() {
		for pi, pl := range oraclePlans {
			if !slices.Contains(s.plans, pl.Name) {
				continue
			}
			for _, v := range s.vals {
				c := cell{plan: pi}
				c.f[s.ax] = v
				c.force()
				for _, c.policy = range allPolicies {
					add(c, true)
				}
			}
		}
	}
	for pi := range oraclePlans {
		for n := range len(fabrics) << axFabric {
			c := cell{plan: pi}
			for a := range axFabric {
				c.f[a] = n >> a & 1
			}
			c.f[axFabric] = n >> axFabric
			if valid(c) {
				add(c, false)
			}
		}
	}
	return need
}

// TestOracleArrayCovers is the array's coverage proof: every generated cell
// is valid and inside some legacy slice (so a filter checks it), and the
// cells cover every required tuple.
func TestOracleArrayCovers(t *testing.T) {
	cells, legacy := generate(), legacySlices()
	covered := map[tuple]bool{}
	for _, c := range cells {
		if !valid(c) || !slices.ContainsFunc(legacy, func(s legacySlice) bool { return s.holds(c) }) {
			t.Errorf("%v: invalid, or in no legacy slice", c)
		}
		for _, tp := range c.tuples() {
			covered[tp] = true
		}
	}
	need := required()
	for tp := range need {
		if !covered[tp] {
			t.Errorf("uncovered %+v", tp)
		}
	}
	t.Logf("%d cells cover %d required tuples", len(cells), len(need))
}

// oracle is the array's results, computed once per package.
var (
	oracleOnce sync.Once
	oracle     struct {
		cells  []cell
		res    []*RunResult
		err    error
		base   *RunResult
		serial map[int]*RunResult // one-worker rerun of the sink rows
	}
)

func runOracle(t *testing.T) {
	oracleOnce.Do(func() {
		o := &oracle
		o.base, o.err = RunConformance(OracleConfig{Seed: oracleSeed, Policy: allPolicies[0]})
		if o.err != nil {
			return
		}
		o.cells = generate()
		// MapAll: a broken cell must not mask its siblings' failures.
		o.res, o.err = harness.MapAll(o.cells, func(c cell) (*RunResult, error) {
			res, err := RunConformance(c.config())
			if err != nil {
				err = fmt.Errorf("%v: %w", c, err)
			}
			return res, err
		})
		var idx []int
		for i, c := range o.cells {
			if n := oraclePlans[c.plan].Name; n == "kitchen-sink" || n == "corrupt-sink" {
				idx = append(idx, i)
			}
		}
		rerun, err := harness.MapN(1, idx, func(i int) (*RunResult, error) { return RunConformance(o.cells[i].config()) })
		o.err = errors.Join(o.err, err)
		o.serial = map[int]*RunResult{}
		for k, i := range idx {
			o.serial[i] = rerun[k]
		}
	})
	if oracle.base == nil {
		t.Fatalf("fault-free baseline: %v", oracle.err)
	}
}

// checkLegacy runs the legacy slice named after the calling test: one
// subtest per plan, which must hold cells of all six policies, each meeting
// the oracle contract, with the row showing what its plan demands.
func checkLegacy(t *testing.T) {
	runOracle(t)
	o := &oracle
	if o.err != nil {
		t.Error(o.err)
	}
	legacy := legacySlices()
	s := legacy[slices.IndexFunc(legacy, func(s legacySlice) bool { return s.name == t.Name() })]
	for _, name := range s.plans {
		t.Run(name, func(t *testing.T) {
			var policies []core.Kind
			var quarantines, reintegrations, nacks, repolls int64
			var want rowWant
			for i, c := range o.cells {
				res := o.res[i]
				if oraclePlans[c.plan].Name != name || !s.holds(c) || res == nil {
					continue
				}
				policies = append(policies, c.policy)
				want = oraclePlans[c.plan].want
				contract(t, c.String(), c.config(), res, o.base.Digest)
				quarantines += res.RailQuarantines
				reintegrations += res.RailReintegrations
				nacks += res.IntegrityNacks
				repolls += res.TornRepolls
				if s.serial && !reflect.DeepEqual(res, o.serial[i]) {
					t.Errorf("%v: serial/parallel diverge:\n%+v\n%+v", c, o.serial[i], res)
				}
			}
			for _, k := range allPolicies {
				if !slices.Contains(policies, k) {
					t.Errorf("no cell runs %v", k)
				}
			}
			switch {
			case want == wantQuarantine && quarantines == 0:
				t.Error("permanent rail death never quarantined by any endpoint")
			case want == wantReintegrate && (quarantines == 0 || reintegrations == 0):
				t.Errorf("flap: quarantines=%d reintegrations=%d, want both > 0", quarantines, reintegrations)
			case want == wantNack && nacks == 0:
				t.Error("corruption never triggered a NACK; injection is not engaging")
			case want == wantRepoll && repolls == 0:
				t.Error("torn plan never forced a doorbell repoll")
			}
		})
	}
}

// contract is the oracle's check of one run, an array cell or a hand-written
// config: no invariant broken (BufLive()==0 included), the fault-free
// digest, under verify no corrupt delivery and no NACK without faults, and a
// cache that both hits and misses under the striped collectives (the lane
// ones move the oracle's bcast as eager pieces, which never register).
func contract(t *testing.T, name string, cfg OracleConfig, res *RunResult, base uint64) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("%s: %s", name, v)
	}
	if res.Digest != base {
		t.Errorf("%s: digest %#x, fault-free %#x", name, res.Digest, base)
	}
	faultFree := cfg.Plan == nil || len(cfg.Plan.Events) == 0
	if cfg.Integrity == adi.IntegrityVerify && (res.CorruptDeliveries != 0 || faultFree && res.IntegrityNacks != 0) {
		t.Errorf("%s: verify delivered %d corrupt payloads, NACKed %d", name, res.CorruptDeliveries, res.IntegrityNacks)
	}
	if cfg.RegCache != nil && cfg.CollAlg == mpi.CollStriped && (res.RegHits == 0 || res.RegMisses == 0) {
		t.Errorf("%s: cache not exercised (hits=%d misses=%d)", name, res.RegHits, res.RegMisses)
	}
}

// The fifteen legacy tests, each a filter over the array.

func TestDifferentialOracle(t *testing.T)                         { checkLegacy(t) }
func TestSelfHealingDifferentialOracle(t *testing.T)              { checkLegacy(t) }
func TestDifferentialOracleRDMAEager(t *testing.T)                { checkLegacy(t) }
func TestDifferentialOracleRegCache(t *testing.T)                 { checkLegacy(t) }
func TestDifferentialOracleLaneColl(t *testing.T)                 { checkLegacy(t) }
func TestDifferentialOracleIntegrity(t *testing.T)                { checkLegacy(t) }
func TestDifferentialOracleRouting(t *testing.T)                  { checkLegacy(t) }
func TestGeneratedPlansConverge(t *testing.T)                     { checkLegacy(t) }
func TestIntegrityGeneratedPlansConverge(t *testing.T)            { checkLegacy(t) }
func TestConformanceSerialParallelIdentical(t *testing.T)         { checkLegacy(t) }
func TestRDMAEagerSerialParallelIdentical(t *testing.T)           { checkLegacy(t) }
func TestRegCacheConformanceSerialParallelIdentical(t *testing.T) { checkLegacy(t) }
func TestLaneCollSerialParallelIdentical(t *testing.T)            { checkLegacy(t) }
func TestRoutingSerialParallelIdentical(t *testing.T)             { checkLegacy(t) }
func TestIntegritySerialParallelIdentical(t *testing.T)           { checkLegacy(t) }

// Config validation: Validate and the fault plan's Arm are the only gates
// between a job description and a running world. These tests live in
// package mpi_test because the plans come from the chaos package, which
// imports mpi.
package mpi_test

import (
	"math"
	"strings"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// badConfigs are jobs no layer accepts, each with the field or plan target
// its error must name.
var badConfigs = []struct {
	field string
	cfg   mpi.Config
}{
	{"PortsPerHCA", mpi.Config{Ports: 5}},
	{"Policy", mpi.Config{Policy: core.Kind(99)}},
	{"EagerProto", mpi.Config{EagerProto: adi.EagerProto(9)}},
	{"Rndv", mpi.Config{Rndv: adi.RndvProto(9)}},
	{"Integrity", mpi.Config{Integrity: adi.IntegrityMode(9)}},
	{"CollAlg", mpi.Config{CollAlg: mpi.CollAlg(9)}},
	{"Routing", mpi.Config{Routing: fabric.Routing(7)}},
	{"Routing", mpi.Config{Routing: fabric.Routing(-1)}},
	{"NodesPerSwitch", mpi.Config{NodesPerSwitch: -1}},
	{"Dragonfly.Groups", mpi.Config{Dragonfly: topo.Dragonfly{Groups: -1}}},
	{"Deadline", mpi.Config{Deadline: -1}},
	{"Reliability.CheckInterval", mpi.Config{Reliability: &adi.ReliabilityConfig{CheckInterval: -1}}},
	{"Reliability.ProbeBase", mpi.Config{Reliability: &adi.ReliabilityConfig{ProbeBase: -1}}},
	{"Reliability.ProbeMax", mpi.Config{Reliability: &adi.ReliabilityConfig{ProbeMax: -1}}},
	{"Reliability.Deadline", mpi.Config{Reliability: &adi.ReliabilityConfig{Deadline: -1}}},
	{"Reliability.DeadlineScale", mpi.Config{Reliability: &adi.ReliabilityConfig{DeadlineScale: -1}}},
	{"Reliability.DeadlineScale", mpi.Config{Reliability: &adi.ReliabilityConfig{DeadlineScale: math.NaN()}}},
	{"Reliability.SuspectAfter", mpi.Config{Reliability: &adi.ReliabilityConfig{SuspectAfter: -1}}},
	{"Reliability.RetryBase", mpi.Config{Reliability: &adi.ReliabilityConfig{RetryBase: -1}}},
	{"Reliability.RetryMax", mpi.Config{Reliability: &adi.ReliabilityConfig{RetryMax: -1}}},
	{"RegCache.CapacityBytes", mpi.Config{RegCache: &regcache.Config{CapacityBytes: -1}}},
	{"RegCache.CapacityEntries", mpi.Config{RegCache: &regcache.Config{CapacityEntries: -1}}},
	{"RegCache.PageBytes", mpi.Config{RegCache: &regcache.Config{PageBytes: -1}}},
	{"RegCache.PinPerPage", mpi.Config{RegCache: &regcache.Config{PinPerPage: -1}}},
	{"RegCache.PinSyscall", mpi.Config{RegCache: &regcache.Config{PinSyscall: -1}}},
	// Plans aimed outside the built world: each would inject nothing. (The
	// rail events flap, so a fuzzed world that does have the target can
	// still finish.)
	{"Rail", mpi.Config{QPsPerPort: 2, Chaos: chaos.RailFlap(0, 50*sim.Microsecond, 0, 2)}},
	{"Node", mpi.Config{Chaos: chaos.RailFlap(0, 50*sim.Microsecond, 2, 0)}},
	{"Port", mpi.Config{Chaos: chaos.StalledEngine(0, sim.Microsecond, 0, 1)}},
	{"plane", mpi.Config{Chaos: chaos.DegradedTrunk(0, sim.Millisecond, 0, 0.5)}},
}

// TestRunRejectsBadConfig: a shape, option value or fault-plan target no
// layer below accepts fails Run before any rank runs, with an error naming
// the field, instead of a panic inside the world build, a deadlock, a
// silent default, or a plan that injects nothing.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range badConfigs {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			ran := false
			_, err := mpi.Run(tc.cfg, func(*mpi.Comm) { ran = true })
			if err == nil || !strings.Contains(err.Error(), tc.field) || ran {
				t.Errorf("Run = %v (body ran: %v); want an error naming %s before any rank runs", err, ran, tc.field)
			}
		})
	}
}

// fuzzDeadline bounds every fuzzed run in virtual time.
const fuzzDeadline = sim.Second

// decoder reads a fuzz input one byte at a time; an exhausted input reads 0.
type decoder []byte

// in returns a value in [lo, hi] decoded from the next byte.
func (d *decoder) in(lo, hi int) int {
	var b byte
	if len(*d) > 0 {
		b, *d = (*d)[0], (*d)[1:]
	}
	return lo + int(b)%(hi-lo+1)
}

// fuzzConfig starts from badConfigs[row] (the zero job when row is past the
// table), gives it the fuzz deadline unless it has one, and applies edits:
// each picks a field and decodes its new value from a small range. World
// sizes stay tiny (at most 8 nodes × 4 procs), enums reach one past either
// end, and the plan is nil or one event with targets in [-1, 9].
func fuzzConfig(row uint8, edits []byte) mpi.Config {
	var cfg mpi.Config
	if int(row) < len(badConfigs) {
		cfg = badConfigs[row].cfg
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = fuzzDeadline
	}
	d := decoder(edits)
	for len(d) > 0 {
		switch d.in(0, 19) {
		case 0:
			cfg.Nodes = d.in(-1, 8)
		case 1:
			cfg.ProcsPerNode = d.in(-1, 4)
		case 2:
			cfg.HCAs = d.in(-1, 3)
		case 3:
			cfg.Ports = d.in(-1, 3)
		case 4:
			cfg.QPsPerPort = d.in(-1, 5)
		case 5:
			cfg.Policy = core.Kind(d.in(int(core.Original)-1, int(core.Adaptive)+1))
		case 6:
			cfg.EagerProto = adi.EagerProto(d.in(-1, 2))
		case 7:
			cfg.Rndv = adi.RndvProto(d.in(-1, 2))
		case 8:
			cfg.Integrity = adi.IntegrityMode(d.in(-1, 3))
		case 9:
			cfg.CollAlg = mpi.CollAlg(d.in(-1, 3))
		case 10:
			cfg.Routing = fabric.Routing(d.in(-1, 2))
		case 11:
			cfg.NodesPerSwitch = d.in(-1, 4)
		case 12:
			cfg.Tiers = d.in(-1, 4)
		case 13:
			cfg.SpinesPerPod = d.in(-1, 3)
		case 14:
			cfg.Dragonfly = topo.Dragonfly{Groups: d.in(-1, 3), RoutersPerGroup: d.in(-1, 3), GlobalLinks: d.in(-1, 2)}
		case 15:
			cfg.TrunkRate = [...]float64{-1, 0, model.Default().LinkRawRate / 4, math.NaN()}[d.in(0, 3)]
		case 16:
			cfg.Deadline = [...]sim.Time{-1, fuzzDeadline}[d.in(0, 1)]
		case 17:
			cfg.Reliability = fuzzReliability(d.in(0, 10))
		case 18:
			cfg.RegCache = fuzzRegCache(d.in(0, 6))
		case 19:
			cfg.Chaos = fuzzPlan(&d)
		}
	}
	return cfg
}

// fuzzReliability is nil (k = 0), the defaults (1), or one field negative.
func fuzzReliability(k int) *adi.ReliabilityConfig {
	if k == 0 {
		return nil
	}
	r := &adi.ReliabilityConfig{}
	switch k {
	case 2:
		r.Deadline = -1
	case 3:
		r.CheckInterval = -1
	case 4:
		r.SuspectAfter = -1
	case 5:
		r.RetryBase = -1
	case 6:
		r.RetryMax = -1
	case 7:
		r.ProbeBase = -1
	case 8:
		r.ProbeMax = -1
	case 9:
		r.DeadlineScale = -1
	case 10:
		r.DeadlineScale = math.NaN()
	}
	return r
}

// fuzzRegCache is nil (k = 0), the defaults (1), or one field negative.
func fuzzRegCache(k int) *regcache.Config {
	if k == 0 {
		return nil
	}
	rc := &regcache.Config{}
	switch k {
	case 2:
		rc.CapacityBytes = -1
	case 3:
		rc.CapacityEntries = -1
	case 4:
		rc.PageBytes = -1
	case 5:
		rc.PinPerPage = -1
	case 6:
		rc.PinSyscall = -1
	}
	return rc
}

// fuzzPlan is nil or one event at t=0 of a kind from one before RailDown to
// one past TrunkRestore, with node, port and rail in [-1, 9]. A RailDown
// flaps back up 50us later: a node's only rail dead for good is a plan no
// run can finish, not a config to reject.
func fuzzPlan(d *decoder) mpi.ChaosPlan {
	k := d.in(0, int(chaos.TrunkRestore)+3)
	if k == 0 {
		return nil
	}
	ev := chaos.Event{Kind: chaos.EventKind(k - 2), Node: d.in(-1, 9), Port: d.in(-1, 9), Rail: d.in(-1, 9),
		N: 3, Factor: 0.5, Pad: sim.Microsecond, Seed: 1}
	p := &chaos.Plan{Name: "fuzz", Events: []chaos.Event{ev}}
	if ev.Kind == chaos.RailDown {
		ev.At, ev.Kind = 50*sim.Microsecond, chaos.RailUp
		p.Events = append(p.Events, ev)
	}
	return p
}

// FuzzConfigValidate holds Run to its gate on jobs decoded from the input:
// Run never panics; it fails before any rank runs exactly when Validate or
// the plan's Arm fails, with that error; and an accepted job finishes a
// ring Sendrecv and a Barrier under the virtual deadline.
func FuzzConfigValidate(f *testing.F) {
	for i := range badConfigs {
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(255), []byte(nil))
	f.Add(uint8(255), []byte{0, 3, 1, 2, 4, 4, 17, 1, 19, 2, 0, 0, 3}) // 2×1×4 rails, a flap of rail 2
	f.Add(uint8(255), []byte{0, 5, 11, 2, 19, 12, 0, 1, 0})            // two-level tree, plane 0 degraded
	f.Add(uint8(255), []byte{8, 3, 6, 2, 19, 9, 0, 0, 0, 4, 2})        // verify + ring, bit flips on every port
	f.Fuzz(func(t *testing.T, row uint8, edits []byte) {
		cfg := fuzzConfig(row, edits)
		want := cfg.Validate()
		if want == nil && cfg.Chaos != nil {
			want = cfg.Chaos.Arm(mpi.BuildWorld(cfg))
		}
		ran := false
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			ran = true
			n, r := c.Size(), c.Rank()
			c.SendrecvN((r+1)%n, 0, nil, 4<<10, (r-1+n)%n, 0, nil, 4<<10)
			c.Barrier()
		})
		switch {
		case want != nil && (err == nil || err.Error() != want.Error() || ran):
			t.Fatalf("%+v: Run = %v (body ran: %v), want %v before any rank runs", cfg, err, ran, want)
		case want == nil && err != nil:
			t.Fatalf("%+v: accepted job failed: %v", cfg, err)
		}
	})
}

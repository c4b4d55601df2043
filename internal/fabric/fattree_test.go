package fabric

import (
	"math/rand"
	"testing"

	"ib12x/internal/sim"
)

// The single switch and the two-level tree as shapes of the one graph.

func TestTwoLevelShape(t *testing.T) {
	n := NewTwoLevel(600*sim.Nanosecond, 8, 4, 1, 3e9, RouteStatic, 0)
	g := n.g
	if g.leaves != 2 || g.pods != 1 || len(g.lanes) != 4 || n.Planes() != 1 {
		t.Fatalf("shape: leaves=%d pods=%d lanes=%d planes=%d", g.leaves, g.pods, len(g.lanes), n.Planes())
	}
	for _, c := range []struct{ node, leaf int }{{0, 0}, {3, 0}, {4, 1}, {7, 1}} {
		if got := g.switchOf(c.node); got != c.leaf {
			t.Errorf("switchOf(%d) = %d, want %d", c.node, got, c.leaf)
		}
	}
	if n.CrossSwitch(0, 3) || !n.CrossSwitch(3, 4) {
		t.Error("cross-leaf classification wrong")
	}
}

func TestTrunkLanesIndependent(t *testing.T) {
	n := NewTwoLevel(600*sim.Nanosecond, 8, 2, 1, 1e9, RouteStatic, 0)
	g := n.g
	// A leaf-0 → leaf-1 transfer books leaf 0's uplink and leaf 1's
	// downlink, and nothing else.
	n.BookPath(0, 2, 1, 0, 0, 10000, n.OneWay())
	if got := g.lanes[g.laneUpLS(0, 0)].FreeAt(); got != 10*sim.Microsecond {
		t.Errorf("leaf 0 uplink freeAt = %v, want 10us", got)
	}
	if got := g.lanes[g.laneDownSL(1, 0)].Items(); got != 1 {
		t.Errorf("leaf 1 downlink items = %d, want 1", got)
	}
	if g.lanes[g.laneUpLS(1, 0)].FreeAt() != 0 {
		t.Error("trunks must be per-leaf")
	}
	if g.lanes[g.laneDownSL(0, 0)].FreeAt() != 0 {
		t.Error("up and down trunks are separate lanes")
	}
	if items, bytes := n.PlaneStats(0); items != 2 || bytes != 20000 {
		t.Errorf("plane 0 carries %d items / %d bytes, want 2 / 20000", items, bytes)
	}
}

// refTwoLevel is the one-spine two-level tree in closed form, with no graph
// and no routing: one up and one down trunk lane per leaf, two Sends, +lat
// after each.
type refTwoLevel struct {
	npl      int
	up, down []Lane
}

func (r *refTwoLevel) book(src, dst int, first, last sim.Time, wire int64, lat sim.Time) (sim.Time, sim.Time) {
	sl, dl := src/r.npl, dst/r.npl
	if sl == dl {
		return first, last
	}
	s, e := r.up[sl].Send(first, wire, last)
	s, e = r.down[dl].Send(s+lat, wire, e+lat)
	return s + lat, e + lat
}

// TestTwoLevelMatchesReference books random transfer sequences through the
// one-spine two-level graph and through the reference recurrence: every
// (first, last) and the final state of every trunk lane must agree exactly.
func TestTwoLevelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20070326))
	for trial := 0; trial < 200; trial++ {
		npl := 1 + r.Intn(4)
		nodes := 2 + r.Intn(20)
		rate := []float64{0.75e9, 3e9, 12e9}[r.Intn(3)]
		mode := Routing(r.Intn(2)) // one candidate per choice: the mode is moot
		n := NewTwoLevel(sim.Microsecond, nodes, npl, 1, rate, mode, r.Uint64())
		leaves := n.g.leaves
		ref := &refTwoLevel{npl: npl, up: make([]Lane, leaves), down: make([]Lane, leaves)}
		for i := 0; i < leaves; i++ {
			ref.up[i].Rate, ref.down[i].Rate = rate, rate
		}
		var now sim.Time
		for i := 0; i < 100; i++ {
			now += sim.Time(r.Intn(4000)) * sim.Nanosecond
			src, dst := r.Intn(nodes), r.Intn(nodes)
			last := now + sim.Time(r.Intn(6000))*sim.Nanosecond
			wire := int64(1 + r.Intn(1<<16))
			lat := sim.Time(600+r.Intn(400)) * sim.Nanosecond
			gf, gl := n.BookPath(src, dst, r.Uint64(), now, last, wire, lat)
			rf, rl := ref.book(src, dst, now, last, wire, lat)
			if gf != rf || gl != rl {
				t.Fatalf("trial %d booking %d (%d->%d): graph (%v,%v), reference (%v,%v)", trial, i, src, dst, gf, gl, rf, rl)
			}
		}
		for leaf := 0; leaf < leaves; leaf++ {
			for _, c := range []struct {
				name string
				got  *Lane
				want *Lane
			}{
				{"up", &n.g.lanes[n.g.laneUpLS(leaf, 0)], &ref.up[leaf]},
				{"down", &n.g.lanes[n.g.laneDownSL(leaf, 0)], &ref.down[leaf]},
			} {
				if *c.got != *c.want {
					t.Fatalf("trial %d leaf %d %s lane: graph %+v, reference %+v", trial, leaf, c.name, *c.got, *c.want)
				}
			}
		}
	}
}

// TestSingleSwitchIsOneLeaf: no pair crosses a switch, there is nothing to
// book or degrade, and BookPath hands its window back untouched.
func TestSingleSwitchIsOneLeaf(t *testing.T) {
	n := NewSingleSwitch(600 * sim.Nanosecond)
	if len(n.g.lanes) != 0 || n.Planes() != 0 {
		t.Fatalf("single switch has %d trunk lanes and %d planes", len(n.g.lanes), n.Planes())
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		a, b := r.Intn(1<<20), r.Intn(1<<20)
		if n.CrossSwitch(a, b) {
			t.Fatalf("nodes %d and %d cross a switch", a, b)
		}
		first := sim.Time(r.Int63n(1 << 40))
		last := first + sim.Time(r.Int63n(1<<20))
		if f, l := n.BookPath(a, b, r.Uint64(), first, last, 4096, n.OneWay()); f != first || l != last {
			t.Fatalf("BookPath(%d,%d) moved (%v,%v) to (%v,%v)", a, b, first, last, f, l)
		}
	}
	if items, bytes := n.PlaneStats(0); items != 0 || bytes != 0 {
		t.Fatalf("plane stats on a single switch: %d items, %d bytes", items, bytes)
	}
}

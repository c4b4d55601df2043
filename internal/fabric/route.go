// The switch graph: fat trees and dragonfly groups with per-switch
// forwarding tables and deterministic path selection.
//
// Every inter-switch cable is its own Lane, and each switch picks among
// parallel candidates — statically (D-mod-K hashing of the flow key) or
// adaptively (least modeled finish time at booking, with seeded
// tie-breaks). Either way a run replays bit-identically: static selection
// is a pure function of the flow key, and adaptive selection reads only
// lane state that the deterministic event order already fixes.
package fabric

import (
	"math"

	"ib12x/internal/sim"
)

// Routing selects the path-selection discipline of the fabric.
type Routing int

const (
	// RouteStatic picks every candidate lane by a D-mod-K hash of the
	// flow key — oblivious, pure, independent of fabric load.
	RouteStatic Routing = iota
	// RouteAdaptive picks the candidate lane with the earliest modeled
	// finish time at booking (rate-aware, see laneFinish), breaking ties
	// deterministically from a seeded starting offset.
	RouteAdaptive
)

func (r Routing) String() string {
	if r == RouteAdaptive {
		return "adaptive"
	}
	return "static"
}

// maxHops bounds any minimal route in either topology: leaf→spine→core→
// spine→leaf is 4 lanes, local→global→local is 3.
const maxHops = 4

const (
	gFatTree = iota
	gDragonfly
)

// graph holds the switch graph of a fabric. Lanes live in one slab indexed
// by closed-form functions of the topology coordinates; a "plane" (spine
// index in a fat tree, global-link index in a dragonfly) groups the lanes
// that a single physical failure domain would take down together.
type graph struct {
	kind     int
	mode     Routing
	seed     uint64
	nodesPer int // nodes per leaf switch / per dragonfly router

	// fat tree: `leaves` leaf switches grouped podLeaves to a pod, each pod
	// with `spines` spine switches, and `cores` core switches connecting
	// every spine of every pod (full bipartite). Three tiers have
	// podLeaves = cores = spines; two levels are one pod holding every
	// leaf and no core; a single switch is one leaf with no spine.
	spines    int
	cores     int
	podLeaves int
	pods      int
	leaves    int

	// dragonfly: `groups` groups of `routers` routers each, all-to-all
	// local links inside a group and `glinks` parallel global lanes per
	// ordered group pair.
	groups  int
	routers int
	glinks  int

	lanes []Lane
	rates []float64 // built rate per lane (DegradePlane baseline)

	// slab bases
	upLS, downSL, upSC, downCS int // fat tree
	local, global              int // dragonfly
}

// newTree builds a fat tree of `leaves` leaf switches, podLeaves to a pod,
// under `spines` spines per pod and `cores` core switches.
func newTree(latency sim.Time, leaves, perLeaf, podLeaves, spines, cores int, trunkRate float64, mode Routing, seed uint64) *Net {
	pods := (leaves + podLeaves - 1) / podLeaves
	g := &graph{
		kind:      gFatTree,
		mode:      mode,
		seed:      seed,
		nodesPer:  perLeaf,
		spines:    spines,
		cores:     cores,
		podLeaves: podLeaves,
		pods:      pods,
		leaves:    leaves,
	}
	g.upLS = 0
	g.downSL = leaves * spines
	g.upSC = 2 * leaves * spines
	g.downCS = g.upSC + pods*spines*cores
	g.alloc(g.downCS+pods*spines*cores, trunkRate)
	return &Net{Latency: latency, g: g}
}

// leafCount checks a tree's radix arguments and reports how many leaf
// switches of perLeaf nodes hold `nodes`.
func leafCount(nodes, perLeaf, spines int) int {
	if perLeaf < 1 || spines < 1 {
		panic("fabric: fat tree needs perLeaf >= 1 and spines >= 1")
	}
	return max((nodes+perLeaf-1)/perLeaf, 1)
}

// NewSingleSwitch builds the flat fabric of the paper's testbed: one leaf
// that owns every node, so no pair crosses a trunk and there are no planes.
func NewSingleSwitch(latency sim.Time) *Net {
	return newTree(latency, 1, math.MaxInt, 1, 0, 0, 0, RouteStatic, 0)
}

// NewTwoLevel builds a two-level fat tree: nodes are grouped perLeaf
// to a leaf and every leaf connects to each of `spines` spine switches by
// one trunk of trunkRate bytes/s per direction, so the leaf
// oversubscription ratio is perLeaf·linkRate : spines·trunkRate.
func NewTwoLevel(latency sim.Time, nodes, perLeaf, spines int, trunkRate float64, mode Routing, seed uint64) *Net {
	leaves := leafCount(nodes, perLeaf, spines)
	return newTree(latency, leaves, perLeaf, leaves, spines, 0, trunkRate, mode, seed)
}

// NewThreeTier builds a three-tier fat tree: nodes are grouped perLeaf
// to a leaf, leaves grouped spinesPerPod to a pod served by spinesPerPod
// spine switches, and spinesPerPod core switches connect the pods. Every
// inter-switch lane runs at trunkRate bytes/s, so the leaf oversubscription
// ratio is perLeaf·linkRate : spinesPerPod·trunkRate.
func NewThreeTier(latency sim.Time, nodes, perLeaf, spinesPerPod int, trunkRate float64, mode Routing, seed uint64) *Net {
	leaves := leafCount(nodes, perLeaf, spinesPerPod)
	return newTree(latency, leaves, perLeaf, spinesPerPod, spinesPerPod, spinesPerPod, trunkRate, mode, seed)
}

// NewDragonfly builds a dragonfly: groups × routersPerGroup routers with
// nodesPerRouter nodes each, all-to-all local links inside a group, and
// globalLinks parallel global lanes per ordered group pair. Global lane j
// between groups (g1,g2) is anchored at router (g2+j)%R in g1 and router
// (g1+j)%R in g2, so the global channels of a group spread across its
// routers. All lanes run at trunkRate bytes/s.
func NewDragonfly(latency sim.Time, groups, routersPerGroup, nodesPerRouter, globalLinks int, trunkRate float64, mode Routing, seed uint64) *Net {
	if groups < 1 || routersPerGroup < 1 || nodesPerRouter < 1 || globalLinks < 1 {
		panic("fabric: dragonfly needs groups, routersPerGroup, nodesPerRouter, globalLinks >= 1")
	}
	g := &graph{
		kind:     gDragonfly,
		mode:     mode,
		seed:     seed,
		nodesPer: nodesPerRouter,
		groups:   groups,
		routers:  routersPerGroup,
		glinks:   globalLinks,
	}
	r := routersPerGroup
	g.local = 0
	g.global = groups * r * r
	g.alloc(groups*r*r+groups*groups*globalLinks, trunkRate)
	return &Net{Latency: latency, g: g}
}

func (g *graph) alloc(n int, rate float64) {
	if n > 0 && rate <= 0 {
		panic("fabric: trunk lanes need trunkRate > 0")
	}
	g.lanes = make([]Lane, n)
	g.rates = make([]float64, n)
	for i := range g.lanes {
		g.lanes[i].Rate = rate
		g.rates[i] = rate
	}
}

// Lane index helpers. Coordinates are never bounds-checked here; callers
// derive them from node ids already validated by the constructor shape.

func (g *graph) laneUpLS(leaf, s int) int   { return g.upLS + leaf*g.spines + s }
func (g *graph) laneDownSL(leaf, s int) int { return g.downSL + leaf*g.spines + s }

func (g *graph) laneUpSC(pod, s, c int) int   { return g.upSC + (pod*g.spines+s)*g.cores + c }
func (g *graph) laneDownCS(pod, s, c int) int { return g.downCS + (pod*g.spines+s)*g.cores + c }

func (g *graph) laneLocal(grp, a, b int) int { return g.local + (grp*g.routers+a)*g.routers + b }
func (g *graph) laneGlobal(g1, g2, j int) int {
	return g.global + (g1*g.groups+g2)*g.glinks + j
}

// switchOf reports the first-hop switch of a node: its leaf in a fat tree,
// its router (globally numbered) in a dragonfly.
func (g *graph) switchOf(node int) int { return node / g.nodesPer }

// routeMix is the splitmix64 finalizer: a full-avalanche pure hash, the
// basis of both D-mod-K selection and adaptive tie-break offsets.
func routeMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// laneFinish is the adaptive metric: when the lane would finish serving
// `wire` bytes that become ready at `ready`. Charging the transfer at the
// lane's *current* rate — not just comparing FreeAt frontiers — is what
// keeps a DegradeLink'd trunk honest: after SetRate its booked backlog
// still drains at the old speed (so FreeAt alone can look identical to a
// healthy lane's), but the slower service it would give new bytes prices
// the degradation into every comparison.
func laneFinish(l *Lane, ready sim.Time, wire int64) sim.Time {
	s := l.freeAt
	if ready > s {
		s = ready
	}
	return s + sim.TransferTime(wire, l.Rate)
}

// chooseLane picks among ncand candidate lanes lanes[base+i*stride]. cp
// distinguishes the choice points of one route so a flow does not land on
// correlated indices at every tier.
func (g *graph) chooseLane(key uint64, cp, base, stride, ncand int, ready sim.Time, wire int64) int {
	if ncand <= 1 {
		return 0
	}
	h := routeMix(g.seed ^ key ^ (uint64(cp)+1)*0x9e3779b97f4a7c15)
	if g.mode == RouteStatic {
		return int(h % uint64(ncand))
	}
	// Adaptive: earliest modeled finish wins; scan from the hashed start
	// offset with strictly-less comparisons, so ties break toward a
	// seeded, key-dependent — but load-independent — candidate.
	start := int(h % uint64(ncand))
	best := start
	bestFin := laneFinish(&g.lanes[base+start*stride], ready, wire)
	for i := 1; i < ncand; i++ {
		c := start + i
		if c >= ncand {
			c -= ncand
		}
		fin := laneFinish(&g.lanes[base+c*stride], ready, wire)
		if fin < bestFin {
			best, bestFin = c, fin
		}
	}
	return best
}

// walk routes src→dst and, when book is true, charges each hop lane with
// the cut-through recurrence (first = start+hopLat, last = leaves+hopLat
// after every Send). Hop lane indices are recorded into hops; the hop count
// and the updated (first, last) pair are returned. With book=false the walk
// only consults lane state (adaptive mode) without mutating it.
func (g *graph) walk(src, dst int, key uint64, first, last sim.Time, wire int64, hopLat sim.Time, hops *[maxHops]int, book bool) (int, sim.Time, sim.Time) {
	nh := 0
	take := func(idx int) {
		hops[nh] = idx
		nh++
		if book {
			s, e := g.lanes[idx].Send(first, wire, last)
			first, last = s+hopLat, e+hopLat
		}
	}
	switch g.kind {
	case gFatTree:
		sl, dl := src/g.nodesPer, dst/g.nodesPer
		if sl == dl {
			return 0, first, last
		}
		// Up/down: each switch picks among its own output lanes (leaf:
		// which spine; spine: which core; core: which spine of the
		// destination pod), never turning back up.
		sp, dp := sl/g.podLeaves, dl/g.podLeaves
		s1 := g.chooseLane(key, 0, g.laneUpLS(sl, 0), 1, g.spines, first, wire)
		take(g.laneUpLS(sl, s1))
		if sp == dp {
			// Same pod: straight back down from the spine, 2 hops.
			take(g.laneDownSL(dl, s1))
			return nh, first, last
		}
		c := g.chooseLane(key, 1, g.laneUpSC(sp, s1, 0), 1, g.cores, first, wire)
		take(g.laneUpSC(sp, s1, c))
		s2 := g.chooseLane(key, 2, g.laneDownCS(dp, 0, c), g.cores, g.spines, first, wire)
		take(g.laneDownCS(dp, s2, c))
		take(g.laneDownSL(dl, s2))
		return nh, first, last
	default: // gDragonfly
		sr, dr := src/g.nodesPer, dst/g.nodesPer
		if sr == dr {
			return 0, first, last
		}
		sg, dg := sr/g.routers, dr/g.routers
		sl, dl := sr%g.routers, dr%g.routers
		if sg == dg {
			take(g.laneLocal(sg, sl, dl))
			return nh, first, last
		}
		// Minimal l-g-l: at most one local hop to the global lane's
		// source anchor, the global hop, one local hop from its
		// destination anchor — local→global→local order only, which is
		// the deadlock-free minimal pattern of Maglione-Mathey et al.
		j := g.chooseLane(key, 0, g.laneGlobal(sg, dg, 0), 1, g.glinks, first, wire)
		sa, da := (dg+j)%g.routers, (sg+j)%g.routers
		if sl != sa {
			take(g.laneLocal(sg, sl, sa))
		}
		take(g.laneGlobal(sg, dg, j))
		if da != dl {
			take(g.laneLocal(dg, da, dl))
		}
		return nh, first, last
	}
}

// CrossSwitch reports whether two nodes attach to different switches, i.e.
// whether traffic between them crosses trunk lanes at all.
func (n *Net) CrossSwitch(a, b int) bool { return n.g.switchOf(a) != n.g.switchOf(b) }

// BookPath routes src→dst under the flow key and books every hop lane,
// applying the cut-through recurrence first=start+hopLat, last=leaves+hopLat
// after each Send. It returns the delivered (first, last) pair at the
// destination's leaf port.
func (n *Net) BookPath(src, dst int, key uint64, first, last sim.Time, wire int64, hopLat sim.Time) (sim.Time, sim.Time) {
	var hops [maxHops]int
	_, f, l := n.g.walk(src, dst, key, first, last, wire, hopLat, &hops, true)
	return f, l
}

// Planes reports the number of fault planes: spine indices in a fat tree
// (plane s = every up/down lane touching any pod's spine s or core s),
// global-link indices in a dragonfly (plane j = the j-th parallel global
// lane of every group pair). 0 under a single switch.
func (n *Net) Planes() int {
	if n.g.kind == gFatTree {
		return n.g.spines
	}
	return n.g.glinks
}

// eachPlaneLane visits every lane index of a fault plane (none when the
// plane is out of range).
func (n *Net) eachPlaneLane(plane int, fn func(idx int)) {
	g := n.g
	if plane < 0 || plane >= n.Planes() {
		return
	}
	if g.kind == gFatTree {
		for leaf := 0; leaf < g.leaves; leaf++ {
			fn(g.laneUpLS(leaf, plane))
			fn(g.laneDownSL(leaf, plane))
		}
		for pod := 0; pod < g.pods; pod++ {
			for i := 0; i < g.cores; i++ { // cores is spines or 0
				// Spine `plane` to every core, every spine to core `plane`.
				fn(g.laneUpSC(pod, plane, i))
				fn(g.laneDownCS(pod, plane, i))
				if i != plane {
					fn(g.laneUpSC(pod, i, plane))
					fn(g.laneDownCS(pod, i, plane))
				}
			}
		}
		return
	}
	for g1 := 0; g1 < g.groups; g1++ {
		for g2 := 0; g2 < g.groups; g2++ {
			if g1 != g2 {
				fn(g.laneGlobal(g1, g2, plane))
			}
		}
	}
}

// DegradePlane throttles every lane of a fault plane to factor × its built
// rate (the chaos TrunkDegrade fault). No-op on out-of-range planes;
// factors outside (0, 1] are clamped into it.
func (n *Net) DegradePlane(plane int, factor float64) {
	g := n.g
	if factor <= 0 {
		factor = 0.01
	} else if factor > 1 {
		factor = 1
	}
	n.eachPlaneLane(plane, func(idx int) {
		g.lanes[idx].SetRate(g.rates[idx] * factor)
	})
}

// RestorePlane returns every lane of a fault plane to its built rate. No-op
// on out-of-range planes.
func (n *Net) RestorePlane(plane int) {
	g := n.g
	n.eachPlaneLane(plane, func(idx int) {
		g.lanes[idx].SetRate(g.rates[idx])
	})
}

// PlaneStats sums bookings over a fault plane's lanes — the observability
// hook the adaptive-vs-degraded tests assert against.
func (n *Net) PlaneStats(plane int) (items, bytes int64) {
	g := n.g
	n.eachPlaneLane(plane, func(idx int) {
		items += g.lanes[idx].items
		bytes += g.lanes[idx].bytes
	})
	return items, bytes
}

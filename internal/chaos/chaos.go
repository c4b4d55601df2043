// Package chaos is the deterministic fault-injection and differential
// conformance harness. A Plan is a list of fault events pinned to virtual
// times — rail deaths and recoveries, link degradation, stalled send
// engines, delayed completions, periodic chunk loss — armed against a
// freshly built world before any rank runs. Because everything keys off
// the simulation's virtual clock, a given (seed, plan, policy) triple
// replays bit-identically: same trace, same digests, same outcome.
//
// The companion oracle (oracle.go) runs one seeded workload under every
// scheduling policy crossed with a set of fault plans and asserts that the
// user-visible results — payload bytes, matching order, completion
// monotonicity — are identical across policies, faulty or not.
package chaos

import (
	"fmt"
	"math/rand"

	"ib12x/internal/adi"
	"ib12x/internal/hca"
	"ib12x/internal/sim"
)

// EventKind classifies a fault event.
type EventKind int

// Fault event kinds.
const (
	// RailDown kills rail index Rail on every inter-node connection
	// touching Node: both QP halves drop and in-flight WRs flush. The
	// reliability layer (armed by Plan.Arm) quarantines the rail on that
	// evidence, and the scheduling policies see it vanish from the health
	// mask.
	RailDown EventKind = iota
	// RailUp recovers a previously killed rail in hardware; the layer's
	// next successful probe reintegrates it.
	RailUp
	// LinkDegrade multiplies the port's TX/RX rate by Factor and adds Pad
	// one-way latency per chunk (a flaky cable, not a dead one).
	LinkDegrade
	// LinkRestore undoes LinkDegrade.
	LinkRestore
	// SendStall freezes the port's send-engine stage for Pad: WQEs arriving
	// during the stall wait it out before an engine is picked.
	SendStall
	// CompletionDelay postpones RC acknowledgment generation at the port by
	// Pad, delaying sender-side completions without touching data delivery.
	CompletionDelay
	// ChunkLossEveryN drops every N-th chunk crossing the port
	// (hca.Port.ErrorEvery); each loss pays the RC retransmit timeout.
	ChunkLossEveryN
	// Payload corruption (DESIGN.md §17). Each corrupts every N-th payload
	// descriptor posted through the targeted ports (N = 0 disarms; the byte,
	// bit, and mangle draws are seeded by Seed, so replays are bit-identical).
	// Control traffic never consults the plan — VCRC-protected wire headers —
	// which keeps every plan liveness-safe by construction.
	//
	// BitFlipEveryN XORs one seeded bit of one seeded payload byte.
	BitFlipEveryN
	// HeaderCorrupt mangles the wire header of an eager envelope: the
	// receiver mis-reads the payload length (seeded truncation). Matching
	// fields stay intact, so the message still matches and completes.
	HeaderCorrupt
	// RingTornWrite delivers an RDMA eager ring slot whose doorbell and
	// payload are momentarily inconsistent: with integrity armed the consume
	// guard re-polls until the slot settles; disarmed receivers read the
	// stale tail.
	RingTornWrite
	// TrunkDegrade throttles one fault plane of the fabric (spine index of
	// a fat tree, global-link index of a dragonfly; Port carries the plane
	// index) to Factor × its built rate. Booked backlog keeps its
	// departure times; adaptive routing sees the new rate at the next
	// selection. A single switch has no planes, so Arm rejects it there.
	TrunkDegrade
	// TrunkRestore returns the plane to its built rate.
	TrunkRestore
)

func (k EventKind) String() string {
	switch k {
	case RailDown:
		return "RAIL_DOWN"
	case RailUp:
		return "RAIL_UP"
	case LinkDegrade:
		return "LINK_DEGRADE"
	case LinkRestore:
		return "LINK_RESTORE"
	case SendStall:
		return "SEND_STALL"
	case CompletionDelay:
		return "COMPLETION_DELAY"
	case ChunkLossEveryN:
		return "CHUNK_LOSS_EVERY_N"
	case BitFlipEveryN:
		return "BIT_FLIP_EVERY_N"
	case HeaderCorrupt:
		return "HEADER_CORRUPT"
	case RingTornWrite:
		return "RING_TORN_WRITE"
	case TrunkDegrade:
		return "TRUNK_DEGRADE"
	case TrunkRestore:
		return "TRUNK_RESTORE"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled fault. Node and Port select targets; -1 means
// every node (or every port of the selected nodes). Rail applies to
// RailDown/RailUp, N to ChunkLossEveryN, Factor and Pad to the rest.
type Event struct {
	At   sim.Time
	Kind EventKind
	Node int // target node, -1 = all
	Port int // target port within node, -1 = all (rail events ignore it)
	Rail int // rail index for RailDown/RailUp

	N      int64    // ChunkLossEveryN / corruption period (0 disarms)
	Factor float64  // LinkDegrade rate multiplier (0 < Factor <= 1)
	Pad    sim.Time // added latency / stall length / ack delay
	Seed   uint64   // corruption events: byte/bit/mangle draw seed
}

// Plan is a named, ordered fault schedule. The zero value (and NoFaults)
// injects nothing; arming it leaves the fault-free fast paths untouched.
type Plan struct {
	Name   string
	Events []Event
}

// hasRailEvents reports whether the plan can kill or revive a rail, which
// requires the reliability layer on every endpoint.
func (p *Plan) hasRailEvents() bool {
	for _, ev := range p.Events {
		if ev.Kind == RailDown || ev.Kind == RailUp {
			return true
		}
	}
	return false
}

// Arm schedules the plan against a freshly built world. Events at or before
// the current virtual time apply immediately (so t=0 faults precede every
// rank's first instruction); later ones are posted on the engine and fire
// off the virtual clock, which keeps replays bit-identical. A plan with
// rail events arms the reliability layer with the default config unless
// the caller armed it first. Arm must run before the engine does. An event
// aimed at something the world does not have (a node, rail, port or fabric
// plane out of range, or an unknown kind) is an error, and then nothing is
// armed: a plan must not pass by injecting nothing.
func (p *Plan) Arm(eng *sim.Engine, w *adi.World) error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		if err := ev.check(w); err != nil {
			return fmt.Errorf("chaos: plan %q event %d (%v at %v): %w", p.Name, i, ev.Kind, ev.At, err)
		}
	}
	if p.hasRailEvents() {
		w.EnableReliability(adi.ReliabilityConfig{})
	}
	for _, ev := range p.Events {
		if ev.At <= eng.Now() {
			p.apply(eng, w, ev)
			continue
		}
		ev := ev
		eng.Post(ev.At, func() { p.apply(eng, w, ev) })
	}
	return nil
}

// check reports a target of the event that the built world lacks. Node and
// Port take -1 for "all"; a rail event needs a rail index, a trunk event a
// fault plane (in Port) of the fabric.
func (ev Event) check(w *adi.World) error {
	c := w.Cluster
	if ev.Kind < RailDown || ev.Kind > TrunkRestore {
		return fmt.Errorf("unknown event kind")
	}
	if ev.Kind == TrunkDegrade || ev.Kind == TrunkRestore {
		if planes := c.Net.Planes(); ev.Port < 0 || ev.Port >= planes {
			return fmt.Errorf("plane (Port) = %d, the fabric has %d fault planes", ev.Port, planes)
		}
		return nil
	}
	if ev.Node < -1 || ev.Node >= len(c.Nodes) {
		return fmt.Errorf("Node = %d, the world has %d nodes (-1 = all)", ev.Node, len(c.Nodes))
	}
	if ev.Kind == RailDown || ev.Kind == RailUp {
		if rails := c.Spec.Rails(); ev.Rail < 0 || ev.Rail >= rails {
			return fmt.Errorf("Rail = %d, the world has %d rails", ev.Rail, rails)
		}
		return nil
	}
	if ports := len(c.Nodes[max(ev.Node, 0)].Ports()); ev.Port < -1 || ev.Port >= ports {
		return fmt.Errorf("Port = %d, the node has %d ports (-1 = all)", ev.Port, ports)
	}
	return nil
}

// apply executes one fault event against the world.
func (p *Plan) apply(eng *sim.Engine, w *adi.World, ev Event) {
	switch ev.Kind {
	case RailDown, RailUp:
		up := ev.Kind == RailUp
		if ev.Node >= 0 {
			w.SetRail(ev.Node, ev.Rail, up)
			return
		}
		for n := range w.Cluster.Nodes {
			w.SetRail(n, ev.Rail, up)
		}
	case LinkDegrade:
		p.eachPort(w, ev, func(port *hca.Port) { port.DegradeLink(ev.Factor, ev.Pad) })
	case LinkRestore:
		p.eachPort(w, ev, func(port *hca.Port) { port.RestoreLink() })
	case SendStall:
		until := eng.Now() + ev.Pad
		p.eachPort(w, ev, func(port *hca.Port) {
			if port.StallUntil < until {
				port.StallUntil = until
			}
		})
	case CompletionDelay:
		p.eachPort(w, ev, func(port *hca.Port) { port.AckDelay = ev.Pad })
	case ChunkLossEveryN:
		p.eachPort(w, ev, func(port *hca.Port) { port.ErrorEvery = ev.N })
	case BitFlipEveryN:
		p.eachPort(w, ev, func(port *hca.Port) { port.FlipEvery = ev.N; port.CorruptSeed = ev.Seed })
	case HeaderCorrupt:
		p.eachPort(w, ev, func(port *hca.Port) { port.HdrEvery = ev.N; port.CorruptSeed = ev.Seed })
	case RingTornWrite:
		p.eachPort(w, ev, func(port *hca.Port) { port.TornEvery = ev.N; port.CorruptSeed = ev.Seed })
	case TrunkDegrade:
		w.Cluster.Net.DegradePlane(ev.Port, ev.Factor)
	case TrunkRestore:
		w.Cluster.Net.RestorePlane(ev.Port)
	}
}

// eachPort visits the ports the event targets.
func (p *Plan) eachPort(w *adi.World, ev Event, fn func(*hca.Port)) {
	for n, node := range w.Cluster.Nodes {
		if ev.Node >= 0 && ev.Node != n {
			continue
		}
		for pi, port := range node.Ports() {
			if ev.Port >= 0 && ev.Port != pi {
				continue
			}
			fn(port)
		}
	}
}

// ---- named plans ----

// NoFaults is the identity plan: a healthy fabric.
func NoFaults() *Plan { return &Plan{Name: "no-faults"} }

// LegacyEveryN is the chunk-loss knob: every N-th chunk on every port is
// lost and retransmitted after the RC timeout.
func LegacyEveryN(n int64) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("legacy-every-%d", n),
		Events: []Event{{At: 0, Kind: ChunkLossEveryN, Node: -1, Port: -1, N: n}},
	}
}

// RailDeath kills rail on node at the given time, permanently. In-flight
// stripes on the rail are flushed and retransmitted on survivors; the
// policies reroute around the hole for the rest of the run.
func RailDeath(at sim.Time, node, rail int) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("rail-death-n%d-r%d", node, rail),
		Events: []Event{{At: at, Kind: RailDown, Node: node, Rail: rail}},
	}
}

// RailFlap kills a rail at down and revives it at up — a mid-run failure
// with recovery, exercising rebind in both directions.
func RailFlap(down, up sim.Time, node, rail int) *Plan {
	return &Plan{
		Name: fmt.Sprintf("rail-flap-n%d-r%d", node, rail),
		Events: []Event{
			{At: down, Kind: RailDown, Node: node, Rail: rail},
			{At: up, Kind: RailUp, Node: node, Rail: rail},
		},
	}
}

// StalledEngine freezes the send engines of one port (or all, port = -1)
// for dur starting at at: a QP stall without any loss.
func StalledEngine(at, dur sim.Time, node, port int) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("stalled-engine-n%d-p%d", node, port),
		Events: []Event{{At: at, Kind: SendStall, Node: node, Port: port, Pad: dur}},
	}
}

// DegradedLink throttles a port to factor of its raw rate and pads each
// chunk with extra one-way latency between from and until.
func DegradedLink(from, until sim.Time, node, port int, factor float64, pad sim.Time) *Plan {
	return &Plan{
		Name: fmt.Sprintf("degraded-link-n%d-p%d", node, port),
		Events: []Event{
			{At: from, Kind: LinkDegrade, Node: node, Port: port, Factor: factor, Pad: pad},
			{At: until, Kind: LinkRestore, Node: node, Port: port},
		},
	}
}

// DegradedTrunk throttles one fault plane of the fabric (spine plane /
// global-link index) to factor of its built rate between from and until.
// A two-level tree has SpinesPerPod planes; a single switch has none, so
// Arm rejects the plan there.
func DegradedTrunk(from, until sim.Time, plane int, factor float64) *Plan {
	return &Plan{
		Name: fmt.Sprintf("degraded-trunk-plane%d", plane),
		Events: []Event{
			{At: from, Kind: TrunkDegrade, Node: -1, Port: plane, Factor: factor},
			{At: until, Kind: TrunkRestore, Node: -1, Port: plane},
		},
	}
}

// DelayedCompletions postpones ack generation at a port by d between from
// and until: data lands on time, senders learn about it late.
func DelayedCompletions(from, until sim.Time, node, port int, d sim.Time) *Plan {
	return &Plan{
		Name: fmt.Sprintf("delayed-completions-n%d-p%d", node, port),
		Events: []Event{
			{At: from, Kind: CompletionDelay, Node: node, Port: port, Pad: d},
			{At: until, Kind: CompletionDelay, Node: node, Port: port, Pad: 0},
		},
	}
}

// BitFlipPlan corrupts one seeded payload bit on every n-th payload
// descriptor crossing any port of node (node = -1 for all) from `at` on.
// Pair with a second event (N = 0) to disarm mid-run.
func BitFlipPlan(at sim.Time, node int, n int64, seed uint64) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("bit-flip-n%d-every-%d", node, n),
		Events: []Event{{At: at, Kind: BitFlipEveryN, Node: node, Port: -1, N: n, Seed: seed}},
	}
}

// HeaderCorruptPlan mangles the wire header of every n-th eager envelope
// crossing any port of node (node = -1 for all) from `at` on.
func HeaderCorruptPlan(at sim.Time, node int, n int64, seed uint64) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("hdr-corrupt-n%d-every-%d", node, n),
		Events: []Event{{At: at, Kind: HeaderCorrupt, Node: node, Port: -1, N: n, Seed: seed}},
	}
}

// TornWritePlan delivers every n-th ring eager slot torn (doorbell ahead of
// payload) on any port of node (node = -1 for all) from `at` on. Only runs
// with EagerProto = EagerRDMAWrite have torn candidates; other payload
// descriptors are unaffected.
func TornWritePlan(at sim.Time, node int, n int64, seed uint64) *Plan {
	return &Plan{
		Name:   fmt.Sprintf("torn-write-n%d-every-%d", node, n),
		Events: []Event{{At: at, Kind: RingTornWrite, Node: node, Port: -1, N: n, Seed: seed}},
	}
}

// Merge concatenates plans into one composite schedule.
func Merge(name string, plans ...*Plan) *Plan {
	out := &Plan{Name: name}
	for _, p := range plans {
		if p != nil {
			out.Events = append(out.Events, p.Events...)
		}
	}
	return out
}

// Generate builds a seeded random plan over the given cluster shape and
// horizon. It is liveness-safe by construction: rail 0 is never killed (so
// every connection keeps at least one live rail) and every RailDown is
// paired with a RailUp before the horizon. The same seed always yields the
// same plan.
func Generate(seed int64, horizon sim.Time, nodes, rails, ports int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Name: fmt.Sprintf("generated-%d", seed)}
	at := func(lo, hi float64) sim.Time {
		return sim.Time(float64(horizon) * (lo + (hi-lo)*rng.Float64()))
	}

	// Rail flaps on rails >= 1 only.
	if rails > 1 {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			rail := 1 + rng.Intn(rails-1)
			node := rng.Intn(nodes)
			down := at(0.05, 0.55)
			up := down + at(0.10, 0.35)
			if up >= horizon {
				up = horizon - 1
			}
			p.Events = append(p.Events,
				Event{At: down, Kind: RailDown, Node: node, Rail: rail},
				Event{At: up, Kind: RailUp, Node: node, Rail: rail})
		}
	}
	// One degraded-link window.
	if rng.Intn(2) == 0 {
		node, port := rng.Intn(nodes), rng.Intn(ports)
		from := at(0.0, 0.5)
		p.Events = append(p.Events,
			Event{At: from, Kind: LinkDegrade, Node: node, Port: port,
				Factor: 0.25 + 0.5*rng.Float64(), Pad: sim.Time(rng.Intn(2000))},
			Event{At: from + at(0.05, 0.3), Kind: LinkRestore, Node: node, Port: port})
	}
	// One send-engine stall.
	if rng.Intn(2) == 0 {
		p.Events = append(p.Events, Event{
			At: at(0.1, 0.7), Kind: SendStall,
			Node: rng.Intn(nodes), Port: -1, Pad: at(0.02, 0.08),
		})
	}
	// Maybe background chunk loss.
	if rng.Intn(3) == 0 {
		p.Events = append(p.Events, Event{
			At: 0, Kind: ChunkLossEveryN, Node: -1, Port: -1,
			N: int64(64 + rng.Intn(192)),
		})
	}
	return p
}

// GenerateCorrupting extends Generate's seeded schedule with payload
// corruption: a bit-flip regime, maybe a header-mangle regime, and maybe a
// torn-write regime (harmless unless the run uses the RDMA eager ring). The
// base schedule for a given seed is exactly Generate's — the corruption
// draws come after every base draw — so the two generators stay comparable.
// Like Generate, the result is liveness-safe: corruption only touches
// payload descriptors, never the control plane, and the integrity layer's
// NACK retransmissions are corruption-exempt.
func GenerateCorrupting(seed int64, horizon sim.Time, nodes, rails, ports int) *Plan {
	p := Generate(seed, horizon, nodes, rails, ports)
	p.Name = fmt.Sprintf("generated-corrupting-%d", seed)
	rng := rand.New(rand.NewSource(seed ^ 0x1CBC))
	at := func(lo, hi float64) sim.Time {
		return sim.Time(float64(horizon) * (lo + (hi-lo)*rng.Float64()))
	}
	p.Events = append(p.Events, Event{
		At: at(0.0, 0.2), Kind: BitFlipEveryN, Node: rng.Intn(nodes), Port: -1,
		N: int64(3 + rng.Intn(13)), Seed: rng.Uint64(),
	})
	if rng.Intn(2) == 0 {
		p.Events = append(p.Events, Event{
			At: at(0.1, 0.5), Kind: HeaderCorrupt, Node: -1, Port: -1,
			N: int64(5 + rng.Intn(11)), Seed: rng.Uint64(),
		})
	}
	if rng.Intn(2) == 0 {
		p.Events = append(p.Events, Event{
			At: 0, Kind: RingTornWrite, Node: -1, Port: -1,
			N: int64(2 + rng.Intn(6)), Seed: rng.Uint64(),
		})
	}
	return p
}

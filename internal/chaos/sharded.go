package chaos

import (
	"fmt"
	"sort"

	"ib12x/internal/adi"
	"ib12x/internal/hca"
	"ib12x/internal/ib"
	"ib12x/internal/sim"
)

// ArmSharded schedules the plan against a world built over a shard group
// (adi.NewWorldSharded). Every fault event is decomposed into per-node
// sub-events posted on the owning node's shard, so no shard ever mutates
// another shard's hardware state:
//
//   - RailDown/RailUp become one SetRailHalf per node — each node flips only
//     its own QP halves and endpoint masks;
//   - port-scoped events (degrade, stall, ack delay, chunk loss) post to the
//     target ports' own nodes.
//
// Because the plan is static, the cross-shard reads the serial faults would
// require are precomputed instead: every QP that will fail gets its SetDown
// timeline (ib.SetDownSched — remote stages evaluate flushes from the
// descriptor's flushAfter stamp), and every port that will degrade gets its
// LatencyPad timeline (hca.PadSched — remote senders evaluate the pad from
// the schedule). Sub-events posted during setup carry setup-phase keys, so
// at any instant they order before runtime events exactly as the serial
// single event does. Arm must run before the group does.
func (p *Plan) ArmSharded(g *sim.Group, w *adi.World) {
	if p == nil {
		return
	}
	if p.hasRailEvents() {
		w.EnableRailRecovery()
	}
	p.installDownScheds(w)
	p.installPadScheds(w)
	nodes := len(w.Cluster.Nodes)
	for _, ev := range p.Events {
		ev := ev
		switch ev.Kind {
		case RailDown, RailUp:
			up := ev.Kind == RailUp
			for e := 0; e < nodes; e++ {
				e := e
				postShard(g, e, ev.At, func() {
					if ev.Node >= 0 {
						w.SetRailHalf(e, ev.Node, ev.Rail, up)
						return
					}
					for t := 0; t < len(w.Cluster.Nodes); t++ {
						w.SetRailHalf(e, t, ev.Rail, up)
					}
				})
			}
		case TrunkDegrade, TrunkRestore:
			// Fabric planes are shared by every shard, and all trunk
			// lane bookings are deferred to the window barrier where they
			// apply in serial posting-key order. The mutation defers the
			// same way — its setup-phase key slots it before runtime events
			// of the same instant, exactly where the serial apply sits. One
			// application only (shard 0), like the serial switch arm.
			ctx := g.Ctx(0)
			postShard(g, 0, ev.At, func() {
				ctx.Engine().DeferOrdered(func() {
					if ev.Kind == TrunkDegrade {
						w.Cluster.Net.DegradePlane(ev.Port, ev.Factor)
					} else {
						w.Cluster.Net.RestorePlane(ev.Port)
					}
				})
			})
		default:
			for n := 0; n < nodes; n++ {
				if ev.Node >= 0 && ev.Node != n {
					continue
				}
				n := n
				postShard(g, n, ev.At, func() { applyPorts(g, w, ev, n) })
			}
		}
	}
}

// postShard runs fn at time at on the node's shard: immediately when the
// instant has already passed (t=0 faults precede every rank's first
// instruction, as in the serial Arm), else as a posted event.
func postShard(g *sim.Group, node int, at sim.Time, fn func()) {
	ctx := g.Ctx(node)
	if at <= ctx.Now() {
		fn()
		return
	}
	ctx.Post(at, fn)
}

// applyPorts executes one port-scoped fault event against a single node.
func applyPorts(g *sim.Group, w *adi.World, ev Event, n int) {
	for pi, port := range w.Cluster.Nodes[n].Ports() {
		if ev.Port >= 0 && ev.Port != pi {
			continue
		}
		switch ev.Kind {
		case LinkDegrade:
			port.DegradeLink(ev.Factor, ev.Pad)
		case LinkRestore:
			port.RestoreLink()
		case SendStall:
			until := g.Ctx(n).Now() + ev.Pad
			if port.StallUntil < until {
				port.StallUntil = until
			}
		case CompletionDelay:
			port.AckDelay = ev.Pad
		case ChunkLossEveryN:
			port.ErrorEvery = ev.N
		case BitFlipEveryN:
			port.FlipEvery = ev.N
			port.CorruptSeed = ev.Seed
		case HeaderCorrupt:
			port.HdrEvery = ev.N
			port.CorruptSeed = ev.Seed
		case RingTornWrite:
			port.TornEvery = ev.N
			port.CorruptSeed = ev.Seed
		default:
			panic(fmt.Sprintf("chaos: unknown event kind %v", ev.Kind))
		}
	}
}

// installDownScheds precomputes each affected QP's SetDown timeline from the
// static plan. Replaying the rail events in time order with a per-QP down
// flag reproduces exactly the SetDown calls that will bump the QP's epoch
// (SetDown on an already-down QP is a no-op, so duplicate applications —
// Node=-1 events visit every pair twice, as the serial loop does — record
// one transition).
func (p *Plan) installDownScheds(w *adi.World) {
	evs := sortedByTime(p.Events)
	times := map[*ib.QP][]sim.Time{}
	isDown := map[*ib.QP]bool{}
	for _, ev := range evs {
		if ev.Kind != RailDown && ev.Kind != RailUp {
			continue
		}
		targets := []int{ev.Node}
		if ev.Node < 0 {
			targets = targets[:0]
			for n := range w.Cluster.Nodes {
				targets = append(targets, n)
			}
		}
		for _, t := range targets {
			ev := ev
			w.ForEachRailQP(t, ev.Rail, func(qp *ib.QP) {
				if ev.Kind == RailUp {
					isDown[qp] = false
					return
				}
				if !isDown[qp] {
					isDown[qp] = true
					times[qp] = append(times[qp], ev.At)
				}
			})
		}
	}
	for qp, ts := range times {
		qp.SetDownSched(ts)
	}
}

// installPadScheds precomputes each affected port's LatencyPad timeline so
// remote senders never read the mutable field across shards. padAt takes
// the last point at or before the query time, so same-instant transitions
// override in plan order, matching the serial last-write-wins.
func (p *Plan) installPadScheds(w *adi.World) {
	evs := sortedByTime(p.Events)
	pads := map[*hca.Port][]hca.PadPoint{}
	for _, ev := range evs {
		if ev.Kind != LinkDegrade && ev.Kind != LinkRestore {
			continue
		}
		for n, node := range w.Cluster.Nodes {
			if ev.Node >= 0 && ev.Node != n {
				continue
			}
			for pi, port := range node.Ports() {
				if ev.Port >= 0 && ev.Port != pi {
					continue
				}
				pad := sim.Time(0)
				if ev.Kind == LinkDegrade {
					pad = ev.Pad
				}
				pads[port] = append(pads[port], hca.PadPoint{At: ev.At, Pad: pad})
			}
		}
	}
	for port, pts := range pads {
		port.PadSched = pts
	}
}

// sortedByTime returns the events stably ordered by fire time — the order
// the serial engine would execute them in (ties keep plan order, matching
// the serial post sequence).
func sortedByTime(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

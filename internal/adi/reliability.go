// Rail reliability layer: endogenous failure detection, backoff
// retransmission, and probe-driven reintegration (DESIGN.md §12).
//
// The layer is the only code that changes a rail's policy-visible health,
// and World.SetRail refuses to run without it (World.EnableReliability; a
// chaos plan with rail events arms it with the default config). The
// operator or the chaos plan only flips QP hardware state, and every
// endpoint discovers sickness on its own, from three signals it already
// owns:
//
//   - a posted WR completing with StatusFlushErr (hard evidence: the rail
//     died with the WR in flight),
//   - PostSend returning ErrQPDown (hard evidence: the rail is down right
//     now),
//   - a WR outstanding past its completion deadline on the periodic
//     virtual-time health scan (soft evidence: one strike per scan; the
//     rail turns suspect, and SuspectAfter strikes quarantine it).
//
// A quarantined rail leaves every policy's RailMask (binding, round robin,
// striping and EPC planners all honor the Dead bits), its backlog reroutes
// onto survivors, and flushed WRs retransmit after an exponential backoff
// with deterministic seeded jitter. Probe WRs — credit-exempt control
// messages posted directly on the quarantined QP, bypassing the scheduler's
// dead-rail stepping — retry on their own backoff schedule; the first probe
// that completes successfully reintegrates the rail without any operator
// intervention. A false quarantine (a stalled engine or a congested link
// tripping the deadline) is therefore safe: the very first probe succeeds
// and the rail returns to service; only routing, never payload content or
// delivery order, is affected.
package adi

import (
	"ib12x/internal/ib"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// ReliabilityConfig tunes the rail health state machine. The zero value of
// every field selects the default documented on it; the zero config as a
// whole is usable.
type ReliabilityConfig struct {
	// Seed feeds the deterministic jitter hash. Runs with equal seeds
	// replay identical backoff and probe schedules.
	Seed int64

	// Deadline is the base completion deadline added to every posted WR on
	// top of its modeled transfer estimate (default 400us). A WR still
	// outstanding past its deadline counts one strike per health scan
	// against its rail.
	Deadline sim.Time
	// DeadlineScale multiplies the WR's modeled wire-transfer time at the
	// port's current (possibly chaos-degraded) link rate into the deadline
	// (default 4), so a slow-but-healthy link is not mistaken for a dead
	// one.
	DeadlineScale float64
	// CheckInterval is the health-scan period (default 50us).
	CheckInterval sim.Time
	// SuspectAfter is the number of deadline strikes that quarantine a rail
	// (default 2). Hard evidence (a flush or ErrQPDown) quarantines
	// immediately, regardless of strikes.
	SuspectAfter int

	// RetryBase/RetryMax bound the exponential backoff before a flushed WR
	// is retransmitted (defaults 5us/80us). The seed-jittered delay
	// replaces the old immediate retransmit.
	RetryBase sim.Time
	RetryMax  sim.Time

	// ProbeBase/ProbeMax bound the exponential backoff between probe WRs on
	// a quarantined rail (defaults 25us/200us).
	ProbeBase sim.Time
	ProbeMax  sim.Time
}

// withDefaults returns a copy with every zero field resolved.
func (c ReliabilityConfig) withDefaults() *ReliabilityConfig {
	if c.Deadline == 0 {
		c.Deadline = 400 * sim.Microsecond
	}
	if c.DeadlineScale == 0 {
		c.DeadlineScale = 4
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 50 * sim.Microsecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2
	}
	if c.RetryBase == 0 {
		c.RetryBase = 5 * sim.Microsecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 80 * sim.Microsecond
	}
	if c.ProbeBase == 0 {
		c.ProbeBase = 25 * sim.Microsecond
	}
	if c.ProbeMax == 0 {
		c.ProbeMax = 200 * sim.Microsecond
	}
	return &c
}

// railState is a rail's position in the health state machine:
//
//	up --strike--> suspect --strikes/flush/ErrQPDown--> quarantined
//	quarantined --probe sent--> probing
//	probing --probe flushed--> quarantined (backoff grows)
//	probing --probe completes--> up (reintegrated)
type railState int

const (
	railHealthy railState = iota
	railSuspect
	railQuarantined
	railProbing
)

func (s railState) String() string {
	switch s {
	case railHealthy:
		return "up"
	case railSuspect:
		return "suspect"
	case railQuarantined:
		return "quarantined"
	case railProbing:
		return "probing"
	default:
		return "railState(?)"
	}
}

// railHealth is the per-(connection, rail) health record.
type railHealth struct {
	state   railState
	strikes int  // deadline strikes since the last healthy transition
	attempt int  // probe backoff exponent
	expired bool // scratch: a WR on this rail blew its deadline this scan
}

// connRel is an inter-node connection's reliability-layer state, made by
// relOf when the armed layer first books evidence against one of the
// connection's rails: a connection that never sees a fault, or a run that
// never arms the layer, pays one nil pointer for it.
type connRel struct {
	health []railHealth // per-rail state machine
	// railWait parks work requests while every rail of the connection is
	// dead; a rail recovery drains it in order.
	railWait []deferredWR
}

// relOf returns the channel's reliability state, making it on first use.
func (c *rcChannel) relOf() *connRel {
	if c.rel == nil {
		c.rel = &connRel{health: make([]railHealth, len(c.rails))}
	}
	return c.rel
}

// probeRef remembers which rail an outstanding probe WR is testing.
type probeRef struct {
	conn *Conn
	rail int
}

// mix64 is the splitmix64 finalizer: the deterministic jitter hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay computes base<<attempt capped at max, plus deterministic
// jitter in [0, delay/2) hashed from (seed, rank, key, attempt). Identical
// inputs always yield identical delays — the replay guarantee — while
// distinct ranks and WRs decorrelate, so a mass flush does not stampede the
// surviving rails in lockstep.
func (ep *Endpoint) backoffDelay(base, max sim.Time, attempt int, key uint64) sim.Time {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	span := uint64(d / 2)
	if span == 0 {
		return d
	}
	h := mix64(uint64(ep.rel.Seed)^mix64(uint64(ep.Rank)<<32^key)) ^ mix64(uint64(attempt)+0x51ed2701)
	return d + sim.Time(h%span)
}

// wrDeadline estimates when a WR of n bytes posted now on the given rail
// should have completed: the lane's currently booked backlog (the simulated
// hardware reserves the pipeline at post time, so FreeAt is an accurate
// congestion signal), a scaled transfer estimate at the port's effective —
// possibly chaos-degraded — link rate, and the base margin.
func (ep *Endpoint) wrDeadline(rail, n int) sim.Time {
	r := ep.rel
	now := ep.eng.Now()
	port := ep.railPort(rail)
	d := now + r.Deadline + sim.Time(r.DeadlineScale*float64(sim.TransferTime(int64(n), port.EffectiveRate())))
	if free := port.TX.FreeAt(); free > now {
		d += free - now
	}
	return d
}

// ---- health scan (soft evidence) ----

// startHealthTimer arms the periodic scan. Called once per endpoint when the
// reliability layer is enabled, before the engine runs, and by each tick.
func (ep *Endpoint) startHealthTimer() {
	ep.eng.PostCall(ep.eng.Now()+ep.rel.CheckInterval, healthTickThunk, ep, 0, 0, 0)
}

// healthTickThunk is healthTick in PostCall form: the method value ep.healthTick
// would allocate a closure on every tick.
func healthTickThunk(a any, _, _, _ int64) { a.(*Endpoint).healthTick() }

// healthTick runs one scan and reschedules itself while the job is alive.
// It runs as an engine event: it must never block, and it never does — every
// path below bottoms out in PostSend or a timer post.
func (ep *Endpoint) healthTick() {
	if ep.eng.LiveProcs() == 0 {
		return // job finished; let the event queue drain
	}
	ep.healthScan()
	ep.startHealthTimer()
}

// healthScan strikes every rail holding a WR past its deadline. Map
// iteration order does not matter: the first pass only sets per-rail flags
// (idempotent), and the second pass applies transitions in deterministic
// (connection, rail) order.
func (ep *Endpoint) healthScan() {
	now := ep.eng.Now()
	for _, fl := range ep.inflight {
		if fl.deadline != 0 && now > fl.deadline {
			fl.conn.relOf().health[fl.rail].expired = true
		}
	}
	for _, conn := range ep.wired {
		rel := conn.rel
		if rel == nil {
			continue
		}
		for rail := range rel.health {
			h := &rel.health[rail]
			if !h.expired {
				continue
			}
			h.expired = false
			ep.strike(conn, rail)
		}
	}
}

// strike books one deadline strike against a rail, moving it up → suspect
// and suspect → quarantined at the configured threshold.
func (ep *Endpoint) strike(conn *Conn, rail int) {
	h := &conn.relOf().health[rail]
	if h.state != railHealthy && h.state != railSuspect {
		return // already quarantined or probing
	}
	h.strikes++
	if h.state == railHealthy {
		h.state = railSuspect
		ep.stats.RailSuspects++
		ep.trace(trace.KindRailSuspect, conn.peer, 0, rail)
	}
	if h.strikes >= ep.rel.SuspectAfter {
		ep.quarantine(conn, rail)
	}
}

// ---- quarantine ----

// quarantine removes a rail from the connection's policy-visible mask, so
// every planner (binding, round robin, striping, EPC) routes around it,
// reroutes the dead QP's deferred backlog onto survivors, and arms the probe
// schedule that will eventually reintegrate it. Idempotent per episode.
func (ep *Endpoint) quarantine(conn *Conn, rail int) {
	h := &conn.relOf().health[rail]
	if h.state == railQuarantined || h.state == railProbing {
		return
	}
	h.state = railQuarantined
	h.attempt = 0
	ep.stats.RailQuarantines++
	ep.trace(trace.KindRailQuarantine, conn.peer, 0, rail)
	conn.sched.Dead.MarkDown(rail)
	if qp := conn.rails[rail]; qp != nil { // an unbuilt rail has nothing deferred
		if b, ok := ep.backlog[qp.QPN]; ok {
			delete(ep.backlog, qp.QPN)
			for _, d := range b.q {
				ep.post(conn, rail, d.wr, d.posted)
			}
		}
	}
	ep.scheduleProbe(conn, rail)
}

// ---- probing and reintegration ----

// scheduleProbe books the next probe attempt on the rail's backoff schedule.
func (ep *Endpoint) scheduleProbe(conn *Conn, rail int) {
	key := uint64(conn.peer)<<16 | uint64(rail)
	delay := ep.backoffDelay(ep.rel.ProbeBase, ep.rel.ProbeMax, conn.relOf().health[rail].attempt, key)
	ep.eng.Post(ep.eng.Now()+delay, func() { ep.probeTick(conn, rail) })
}

// probeTick fires a probe at a quarantined rail. Probes bypass ep.post on
// purpose: the scheduler would step over the Dead rail, and the whole point
// is to touch exactly that QP. They are credit-exempt (the receiver's SRQ
// prepost slack covers them, as it does explicit credit returns) and carry
// no payload, so a flushed probe cannot leak anything.
func (ep *Endpoint) probeTick(conn *Conn, rail int) {
	if ep.eng.LiveProcs() == 0 {
		return // job finished; stop probing so the run can drain
	}
	h := &conn.relOf().health[rail]
	if h.state != railQuarantined {
		return // reintegrated (or probing) since this timer was set
	}
	qp := ep.railQP(conn, rail)
	env := ep.pool.get()
	env.kind, env.src = envProbe, ep.Rank
	wrid := ep.nextWRID()
	err := qp.PostSend(ib.SendWR{
		WRID: wrid, Op: ib.OpSend,
		N: ep.m.CtrlMsgBytes, Signaled: true, Ctx: env,
	})
	if err != nil {
		// ErrQPDown: the rail is still hard-down. ErrSQFull: drowned in
		// flushing descriptors. Either way the attempt failed without
		// flying; back off and retry.
		ep.pool.put(env)
		h.attempt++
		ep.scheduleProbe(conn, rail)
		return
	}
	h.state = railProbing
	ep.probes[wrid] = probeRef{conn: conn, rail: rail}
	ep.stats.RailProbes++
	ep.trace(trace.KindRailProbe, conn.peer, ep.m.CtrlMsgBytes, rail)
}

// probeCompleted consumes a probe CQE: success reintegrates the rail,
// a flush sends it back to quarantine with a longer backoff.
func (ep *Endpoint) probeCompleted(conn *Conn, rail int, ok bool) {
	h := &conn.relOf().health[rail]
	if h.state != railProbing {
		return
	}
	if !ok {
		h.state = railQuarantined
		h.attempt++
		ep.scheduleProbe(conn, rail)
		return
	}
	ep.reintegrate(conn, rail)
}

// reintegrate returns a recovered rail to every planner's mask and replays
// work requests that parked while all rails of the connection were dead.
func (ep *Endpoint) reintegrate(conn *Conn, rail int) {
	h := &conn.relOf().health[rail]
	h.state = railHealthy
	h.strikes = 0
	h.attempt = 0
	ep.stats.RailReintegrations++
	ep.trace(trace.KindRailReintegrate, conn.peer, 0, rail)
	conn.sched.Dead.MarkUp(rail)
	if rel := conn.relOf(); len(rel.railWait) > 0 {
		q := rel.railWait
		rel.railWait = nil
		for _, d := range q {
			ep.post(conn, rail, d.wr, d.posted)
		}
	}
	ep.wake()
}

// railFailed books hard evidence against a rail (a flushed WR or a rejected
// post) and quarantines it immediately.
func (ep *Endpoint) railFailed(conn *Conn, rail int) {
	if ep.rel == nil || rail < 0 || rail >= len(conn.rails) {
		return
	}
	ep.quarantine(conn, rail)
}

// repostAfterBackoff re-posts a flushed WR once its backoff delay elapsed,
// carrying the attempt count into the new in-flight record so a second
// flush backs off further. Runs as an engine event; ep.post never blocks
// (backpressure defers, all-rails-dead parks).
func (ep *Endpoint) repostAfterBackoff(conn *Conn, rail int, wr ib.SendWR, attempt int) {
	ep.post(conn, rail, wr, nil)
	if fl, ok := ep.inflight[wr.WRID]; ok {
		fl.attempt = attempt
	}
}

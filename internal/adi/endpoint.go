package adi

import (
	"cmp"
	"fmt"
	"slices"

	"ib12x/internal/buf"
	"ib12x/internal/core"
	"ib12x/internal/hca"
	"ib12x/internal/ib"
	"ib12x/internal/model"
	"ib12x/internal/regcache"
	"ib12x/internal/shmem"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// srqPrepost is the number of receive WRs kept posted on an endpoint's SRQ.
const srqPrepost = 128

// Conn is one rank's half of a wired rank pair: the sequencing every
// channel shares plus exactly one channel. An intra-node peer's channel is
// the outbound shared-memory link sh; an inter-node peer's is the embedded
// rcChannel over the pair's rails (zero for an intra-node peer). Eager and
// RTS envelopes take sendSeq on either channel and are dispatched in
// recvSeqNext order, so MPI's non-overtaking rule holds across rails and
// across the eager ring and the send/recv window (DESIGN.md §21). A half is
// 232 bytes, so a pair's [2]Conn record takes the 480-byte size class
// (TestConnSize).
type Conn struct {
	peer        int
	sendSeq     uint64
	recvSeqNext uint64
	ooo         map[uint64]*envelope // sequenced envelopes arrived early

	sh *shmem.Link // intra-node channel; nil for inter-node peers
	rcChannel
}

// rcChannel is the inter-node channel of a connection: the pair's RC rails
// and everything that rides them. The rail policy sees only rails and
// sched, through pickRail and planBulk.
type rcChannel struct {
	rails  []*ib.QP // each nil until first posted on (railQP)
	qpn    int      // first of the pair's 2·len(rails) reserved QPNs (buildRails)
	sched  core.ConnState
	ctrlRR int // round-robin cursor for control messages

	// credit is the send/recv window: every channel message consumes one
	// of the peer's preposted receives. A message that finds it empty
	// waits in queue until credits return.
	credit window
	queue  sim.Ring[pendingEnvelope]

	ring *eagerRing // RDMA-write eager ring toward the peer (ring.go); nil unless negotiated
	rel  *connRel   // reliability-layer state (relOf); nil until the armed layer first needs it
}

// window is one flow-control domain of an RC channel: the send/recv
// credits or the eager ring's slots. The sender takes one credit per
// message; the receiver owes one back per message it consumes and returns
// them piggybacked on any reverse message (give) or, once half the window
// is owed, in an explicit envCredit message of their own (consumed).
type window struct {
	avail int // credits this side may spend
	owed  int // credits owed back to the peer
	half  int // owed count that triggers an explicit return
}

// newWindow returns a full window of n credits.
func newWindow(n int) window { return window{avail: n, half: max(1, n/2)} }

// take spends one credit, reporting false when none is left.
func (w *window) take() bool {
	if w.avail <= 0 {
		return false
	}
	w.avail--
	return true
}

// give moves the owed credits into *n, an envelope's return field: every
// outgoing message piggybacks both windows' owed credits. A nil window (no
// ring) owes nothing.
func (w *window) give(n *int) {
	if w != nil {
		*n += w.owed
		w.owed = 0
	}
}

// window returns the window a message travels under: the ring's slots for
// a ring write (nil without a ring), the send/recv credits otherwise.
func (c *rcChannel) window(ring bool) *window {
	if ring {
		return c.ring.window()
	}
	return &c.credit
}

// pendingEnvelope is a channel message stalled on an empty credit window.
type pendingEnvelope struct {
	rail   int
	env    *envelope
	wireN  int
	posted *Request
}

// ctrlRail picks the rail for the next RTS/CTS/FIN. Control messages are
// latency-critical: cycling them across rails keeps them from queueing
// behind bulk RDMA writes on any one QP (head-of-line blocking would stall
// the peer's rendezvous pipeline).
func (c *rcChannel) ctrlRail() int {
	r := c.ctrlRR % len(c.rails)
	c.ctrlRR = (r + 1) % len(c.rails)
	if d := c.sched.Dead; d != 0 {
		if lr := d.NextLive(r, len(c.rails)); lr >= 0 {
			return lr
		}
	}
	return r
}

// pickRail returns the rail of an eager message: its lane's rail (stepped
// off dead rails) when it carries a lane hint, else the policy's pick.
func (ep *Endpoint) pickRail(c *rcChannel, class core.Class, n, lane int) int {
	if lane != NoLane {
		return core.LaneRail(lane, len(c.rails), c.sched.Dead)
	}
	return ep.policy.PickEager(class, n, len(c.rails), &c.sched)
}

// planBulk stripes an n-byte bulk transfer over the channel's rails: one
// stripe pinned to the lane's rail (steered off dead rails against this
// endpoint's own mask) when the transfer carries a lane hint, else the
// policy's plan at the rails' current link rates.
func (ep *Endpoint) planBulk(conn *Conn, class core.Class, n, lane int) []core.Stripe {
	c := &conn.rcChannel
	if lane != NoLane {
		plan := c.sched.LanePlan(lane, len(c.rails), n)
		ep.trace(trace.KindLanePin, conn.peer, n, plan[0].Rail)
		return plan
	}
	ep.refreshRailRates(c)
	return ep.policy.PlanBulk(class, n, len(c.rails), &c.sched)
}

// Rails reports the number of rails of this connection (0 for shmem),
// built or not.
func (c *Conn) Rails() int { return len(c.rails) }

// railQP returns the QP of rail r of an inter-node connection, building
// the rail (both halves) the first time something posts on it.
func (ep *Endpoint) railQP(c *Conn, r int) *ib.QP {
	if qp := c.rails[r]; qp != nil {
		return qp
	}
	ep.w.buildRails(ep.Rank, c, r)
	return c.rails[r]
}

// railPort reports the local port that rail r of every inter-node
// connection of the rank runs on, whether or not the rail is built.
func (ep *Endpoint) railPort(r int) *hca.Port {
	cl := ep.w.Cluster
	return cl.PortsOf(ep.Rank)[r/cl.Spec.QPsPerPort]
}

// InterRails reports the rail count of this endpoint's inter-node
// connections — the lane width available to lane-decomposed collectives —
// or 0 when the world has one node. It is a topology constant, identical on
// every rank and independent of which connections are wired yet, which lane
// partitioning depends on.
func (ep *Endpoint) InterRails() int {
	if s := ep.w.Cluster.Spec; s.Nodes > 1 {
		return s.Rails()
	}
	return 0
}

// Endpoint is the ADI-layer object of one MPI rank.
type Endpoint struct {
	Rank int
	w    *World // wires connections on first use (conn)

	eng    *sim.Engine
	m      *model.Params
	realm  *ib.Realm
	policy core.Policy
	rndv   RndvProto

	cq  *ib.CQ
	srq *ib.SRQ

	// conns is the peer table: the connections this rank has wired, by
	// peer rank, so a rank's per-peer state follows the peers it talks to,
	// not the world's size. wired holds the same connections sorted by
	// peer, the order the health scan and rail events visit them in; its
	// first eight slots are wiredBuf, part of the endpoint.
	conns    map[int]*Conn
	wired    []*Conn
	wiredBuf [8]*Conn

	proc    *sim.Proc
	idle    sim.Waiter
	shmemIn sim.Queue[shmem.Msg]

	recvIx  recvIndex // posted, unmatched receives (indexed; post order kept)
	unexIx  unexIndex // arrived, unmatched eager/RTS (indexed; arrival order kept)
	postSeq uint64    // next receive post-order stamp
	arrSeq  uint64    // next unexpected arrival-order stamp

	pool *pools    // World-shared envelopes, requests and in-flight records
	bufs *buf.Pool // World-shared payload block pool

	wrID       uint64
	onComplete map[uint64]stripe   // completion records of bulk stripes and atomics, by WRID
	backlog    map[int]railBacklog // WRs deferred on ErrSQFull, by rail QPN
	windows    map[int]*winInfo    // exposed RMA windows
	nextCtx    int                 // next free matching-context id
	tr         *trace.Recorder     // optional protocol event recorder

	// In-flight WR tracking (armed by World.EnableReliability and by
	// IntegrityVerify; off in fault-free runs so the hot path never touches
	// the map): every posted WR is remembered until its completion, so a
	// flushed completion can reroute the WR onto a surviving rail of the
	// same connection and a NACK can name its rail.
	inflight map[uint64]*inflightWR

	// Rail reliability layer (armed by World.EnableReliability): health
	// state machine config plus the outstanding probe WRs. nil/empty in
	// runs that never fail a rail.
	rel    *ReliabilityConfig
	probes map[uint64]probeRef

	// reg is the pin-down registration cache (Options.RegCache); nil keeps
	// the historical free-registration model.
	reg *regcache.Cache

	// integrity is the end-to-end checksum mode (Options.Integrity;
	// integrity.go). tornWait parks ring envelopes whose slot the torn-write
	// guard caught mid-write; entries settle in FIFO order (tornAt is the
	// delivery instant plus a constant), so the head is always the next due.
	integrity IntegrityMode
	tornWait  []*envelope
	// shield counts nested Shielded scopes: sends initiated while it is
	// positive are protocol metadata, exempt from corruption injection.
	shield int

	stats Stats
}

// inflightWR remembers where a posted work request was headed so a flush can
// retransmit it elsewhere. With the reliability layer on it also carries the
// completion deadline the health scan judges the rail by, and the retry
// attempt driving the retransmit backoff.
// Records are pooled (pools.fls): the struct is larger than the runtime's
// inline map-value threshold, so storing it by value would heap-allocate on
// every insert — one allocation per tracked WR on the hot path.
type inflightWR struct {
	conn     *Conn
	rail     int
	wr       ib.SendWR
	deadline sim.Time
	attempt  int
}

// putFl retires a WR's in-flight record back to the pool, zeroing it so the
// pooled record does not pin the WR's payload view or envelope.
func (ep *Endpoint) putFl(wrid uint64) {
	fl, ok := ep.inflight[wrid]
	if !ok {
		return
	}
	delete(ep.inflight, wrid)
	*fl = inflightWR{}
	ep.pool.fls.Put(fl)
}

// newEndpoint wires the passive state; connections are added by the World
// on first use.
func newEndpoint(rank int, eng *sim.Engine, m *model.Params, realm *ib.Realm, policy core.Policy, rndv RndvProto, pool *pools, bufs *buf.Pool) *Endpoint {
	ep := &Endpoint{
		Rank:   rank,
		eng:    eng,
		m:      m,
		realm:  realm,
		policy: policy,
		rndv:   rndv,
		cq:     realm.NewCQ(),
		srq:    realm.NewSRQ(),
		// The rank's own entry (no connection to self) makes the table's
		// first slot group here, so wiring a rank's first seven peers
		// allocates neither in the table nor (wiredBuf) in wired.
		conns:      map[int]*Conn{rank: nil},
		onComplete: make(map[uint64]stripe),
		backlog:    make(map[int]railBacklog),
		pool:       pool,
		bufs:       bufs,
	}
	ep.wired = ep.wiredBuf[:0]
	ep.cq.SetNotify(func() { ep.wake() })
	ep.srq.PostRecvN(ib.RecvWR{}, srqPrepost)
	return ep
}

// Attach binds the endpoint to its rank's simulated process. It must be
// called (once) from inside that proc before any communication.
func (ep *Endpoint) Attach(p *sim.Proc) {
	if ep.proc != nil {
		panic("adi: endpoint already attached")
	}
	ep.proc = p
}

// Stats returns a copy of the endpoint's protocol counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// Policy returns the scheduling policy in force.
func (ep *Endpoint) Policy() core.Policy { return ep.policy }

// Now reports the current virtual time.
func (ep *Endpoint) Now() sim.Time { return ep.eng.Now() }

// Compute charges d of modeled computation to the rank.
func (ep *Endpoint) Compute(d sim.Time) { ep.proc.Sleep(d) }

// ChargeCopy charges the cost of copying n bytes at the host memcpy rate
// (used by the datatype pack/unpack layer).
func (ep *Endpoint) ChargeCopy(n int) {
	ep.charge(sim.TransferTime(int64(n), ep.m.EagerCopyRate))
}

// Conn returns the connection to a peer (nil for self), wiring the pair and
// building all its rails if it has not talked yet: the connection an
// up-front build would have given.
func (ep *Endpoint) Conn(peer int) *Conn {
	if peer == ep.Rank {
		return nil
	}
	c := ep.conn(peer)
	if slices.Contains(c.rails, nil) {
		ep.w.buildRails(ep.Rank, c, -1)
	}
	return c
}

// conn returns the connection to peer, wiring the pair on first use. Paths
// that initiate traffic (sends, one-sided operations) go through it; the
// receive side reads conns directly, because the initiator wired both
// halves before anything could arrive.
func (ep *Endpoint) conn(peer int) *Conn {
	if c := ep.conns[peer]; c != nil {
		return c
	}
	ep.checkPeer("Conn", peer)
	ep.w.connect(min(ep.Rank, peer), max(ep.Rank, peer))
	return ep.conns[peer]
}

// checkPeer panics unless peer is a rank of the world.
func (ep *Endpoint) checkPeer(op string, peer int) {
	if peer < 0 || peer >= len(ep.w.Endpoints) {
		panic(fmt.Sprintf("adi: rank %d %s to invalid peer %d", ep.Rank, op, peer))
	}
}

// addConn enters a freshly wired connection into the peer table and into
// wired at its place in peer order.
func (ep *Endpoint) addConn(c *Conn) {
	ep.conns[c.peer] = c
	i, _ := slices.BinarySearchFunc(ep.wired, c.peer, func(x *Conn, peer int) int { return cmp.Compare(x.peer, peer) })
	ep.wired = slices.Insert(ep.wired, i, c)
}

// wake readies the rank if it is parked waiting for progress.
func (ep *Endpoint) wake() { ep.idle.WakeAll() }

// trace records a protocol event when a recorder is attached.
func (ep *Endpoint) trace(kind trace.Kind, peer, bytes, rail int) {
	ep.tr.Record(ep.eng.Now(), kind, ep.Rank, peer, bytes, rail)
}

// charge burns CPU time on the rank's proc.
func (ep *Endpoint) charge(d sim.Time) {
	if d > 0 {
		ep.proc.Sleep(d)
	}
}

// ---- posting ----

// PostSend starts a send of n bytes (data may be nil for synthetic payloads)
// to peer with the given tag and context. class is the communication
// marker's classification. The returned request is already complete for
// eager-size messages (buffered-send semantics).
func (ep *Endpoint) PostSend(peer, tag, ctxID int, class core.Class, data []byte, n int) *Request {
	return ep.postSend(peer, tag, ctxID, class, data, n, NoLane)
}

// PostSendLane is PostSend with a lane-steering hint: the eager message or
// every rendezvous bulk stripe of this send is pinned to rail lane%rails
// of the destination connection (stepping off dead rails to the next live
// one) instead of consulting the policy. Lane-decomposed collectives use
// it to keep each per-lane sub-collective on its own rail; self and
// shared-memory sends ignore the hint. A negative lane means no hint —
// identical to PostSend.
func (ep *Endpoint) PostSendLane(peer, tag, ctxID int, class core.Class, data []byte, n, lane int) *Request {
	if lane < 0 {
		lane = NoLane
	}
	return ep.postSend(peer, tag, ctxID, class, data, n, lane)
}

func (ep *Endpoint) postSend(peer, tag, ctxID int, class core.Class, data []byte, n, lane int) *Request {
	ep.checkPeer("PostSend", peer)
	if !classIsValid(class) {
		panic("adi: invalid communication class")
	}
	checkCount(n)
	if data != nil && len(data) < n {
		panic("adi: send buffer shorter than count")
	}
	req := ep.newRequest()
	req.send, req.peer, req.tag, req.ctxID, req.class, req.data, req.n = true, peer, tag, ctxID, class, data, n
	req.lane = lane
	req.noCorrupt = ep.shield > 0
	if peer == ep.Rank {
		ep.sendSelf(req)
		return req
	}
	conn := ep.conn(peer)
	if conn.sh != nil {
		ep.sendShmem(conn, req)
		return req
	}
	if n < ep.m.RendezvousThreshold {
		ep.sendEager(conn, req)
	} else {
		ep.sendRTS(conn, req)
	}
	return req
}

// PostRecv posts a receive of up to n bytes from src (AnySource allowed)
// with the given tag (AnyTag allowed) and context.
func (ep *Endpoint) PostRecv(src, tag, ctxID int, buf []byte, n int) *Request {
	checkCount(n)
	if buf != nil && len(buf) < n {
		panic("adi: receive buffer shorter than count")
	}
	req := ep.newRequest()
	req.peer, req.tag, req.ctxID, req.data, req.n = src, tag, ctxID, buf, n
	// Unexpected queue first, in arrival order (MPI matching rule).
	if env := ep.unexIx.takeFor(req); env != nil {
		ep.stats.UnexpectedHits++
		ep.matched(req, env)
		ep.pool.put(env)
		return req
	}
	req.postSeq = ep.postSeq
	ep.postSeq++
	ep.recvIx.add(req)
	return req
}

// checkCount panics on a negative byte count, which would otherwise
// complete a receive with a negative Status.Count or slice out of range
// deep in a send path.
func checkCount(n int) {
	if n < 0 {
		panic(fmt.Sprintf("adi: negative count %d", n))
	}
}

// capture copies the first n bytes of data into a pooled payload view — the
// single capture copy of the bounce-buffered paths. nil data (synthetic
// traffic) yields the zero view. The caller owns the returned reference and
// accounts the copy's CPU cost where its path models it. tag names the
// allocation site in the pool's audit report (World.BufLiveReport).
func (ep *Endpoint) capture(data []byte, n int, tag string) buf.View {
	if data == nil {
		return buf.View{}
	}
	v := ep.bufs.GetTagged(n, tag)
	copy(v.Bytes(), data[:n])
	return v
}

// sendSelf loops a message back to the sending rank through the normal
// matching path: the payload is buffered (one copy charge) and matched
// against posted receives or parked on the unexpected queue. All sizes are
// buffered — a self-send never blocks, as in MPICH's self device.
func (ep *Endpoint) sendSelf(req *Request) {
	env := ep.pool.get()
	env.kind, env.src, env.tag, env.ctxID, env.size = envEager, ep.Rank, req.tag, req.ctxID, req.n
	if req.data != nil {
		env.pay = ep.capture(req.data, req.n, "self-send")
		ep.charge(sim.TransferTime(int64(req.n), ep.m.EagerCopyRate))
	}
	req.done = true
	ep.handleMatchable(env)
}

// matched completes or advances a receive matched with an eager or RTS
// envelope, posted first or found on the unexpected queue.
func (ep *Endpoint) matched(req *Request, env *envelope) {
	switch env.kind {
	case envEager:
		ep.deliverEager(req, env)
	case envRTS:
		ep.matchRTS(req, env)
	default:
		panic("adi: unexpected queue held a " + env.kind.String())
	}
}

// Iprobe reports whether a matching message has arrived but not been
// received, without consuming it.
func (ep *Endpoint) Iprobe(src, tag, ctxID int) (bool, Status) {
	probe := Request{peer: src, tag: tag, ctxID: ctxID}
	if env := ep.unexIx.peekFor(&probe); env != nil {
		return true, Status{Source: env.src, Tag: env.tag, Count: env.size}
	}
	return false, Status{}
}

// ---- progress engine (the "completion filter" of Figure 2) ----

// progressOnce handles at most one pending event, charging its CPU costs,
// and reports whether anything was handled.
func (ep *Endpoint) progressOnce() bool {
	if env := ep.tornReadyEnv(); env != nil {
		// A parked torn ring slot has settled: re-poll it (second pass over
		// the slot array) and run the consume path it was diverted from.
		ep.charge(ep.m.RingPollCost)
		ep.received(env)
		return true
	}
	if cqe, ok := ep.cq.Poll(); ok {
		if cqe.Op == ib.OpRecv {
			env, ok := cqe.Ctx.(*envelope)
			if !ok {
				panic("adi: inbound completion without envelope")
			}
			// Stamp the wire's corruption taint (zero on a clean fabric)
			// before any consume decision: the torn-write guard and the
			// delivery path both read it off the envelope.
			env.flipOff, env.flipMask = cqe.FlipOff, cqe.FlipMask
			env.hdrTaint, env.tornAt = cqe.HdrTaint, cqe.TornAt
			if env.ring {
				// Ring arrivals are discovered by the polling set scanning
				// the per-peer slot arrays, not by reaping a completion:
				// charge the (cheaper) poll cost.
				ep.charge(ep.m.RingPollCost)
			} else {
				ep.charge(ep.m.CPUCompletion)
			}
			parked := ep.tornGuard(env)
			ep.srq.PostRecv(ib.RecvWR{}) // replenish the prepost pool
			if !parked {
				ep.received(env)
			}
		} else {
			ep.charge(ep.m.CPUCompletion)
			if pr, ok := ep.probes[cqe.WRID]; ok {
				// Probe CQE: never retransmitted, never in the inflight
				// map — it only moves the rail's health state.
				delete(ep.probes, cqe.WRID)
				ep.probeCompleted(pr.conn, pr.rail, cqe.Status == ib.StatusSuccess)
				ep.drainBacklog(cqe.QPN)
				return true
			}
			if cqe.Status == ib.StatusFlushErr {
				// The WR was in flight when its rail died and its remote
				// effect never happened: reroute it onto a survivor. Its
				// completion callback stays registered and fires when the
				// retransmission completes.
				ep.retransmit(cqe.WRID)
				return true
			}
			if cqe.Status == ib.StatusIntegrityErr {
				// Informational: the receiving HCA rejected the payload and
				// the requester's HCA is already retransmitting it below the
				// verbs layer. Tally the NACK and strike the rail; the WR's
				// callbacks ride its eventual success completion.
				ep.nackNoticed(cqe)
				return true
			}
			if cqe.FlipMask != 0 || cqe.HdrTaint {
				// Taint echo on a successful send completion (verification
				// off): a stripe or read landed corrupted at memory with no
				// receive completion to see it on — tally the silent escape
				// here, at the endpoint that owns the counter.
				ep.corruptDelivered(-1, cqe.Bytes)
			}
			if ep.inflight != nil {
				ep.putFl(cqe.WRID)
			}
			if st, ok := ep.onComplete[cqe.WRID]; ok {
				delete(ep.onComplete, cqe.WRID)
				ep.stripeDone(st, cqe.AtomicOld)
			}
			ep.drainBacklog(cqe.QPN)
		}
		return true
	}
	if msg, ok := ep.shmemIn.TryGet(); ok {
		env, ok2 := msg.Ctx.(*envelope)
		if !ok2 {
			panic("adi: shmem message without envelope")
		}
		env.pay = msg.Pay // payload view rides the channel, not the envelope
		ep.inbound(env)
		return true
	}
	return false
}

// Progress drains all currently pending events without blocking.
func (ep *Endpoint) Progress() {
	for ep.progressOnce() {
	}
}

// Wait blocks the rank until the request completes, driving progress.
func (ep *Endpoint) Wait(req *Request) Status {
	for !req.done {
		if !ep.progressOnce() {
			ep.idle.Wait(ep.proc, whyWaitReq)
		}
	}
	return req.Status()
}

// WaitAll blocks until every request completes.
func (ep *Endpoint) WaitAll(reqs []*Request) {
	for _, r := range reqs {
		ep.Wait(r)
	}
}

// Test drives one round of progress and reports whether req is complete.
func (ep *Endpoint) Test(req *Request) bool {
	ep.Progress()
	return req.done
}

// WaitAnyProgress blocks the rank until at least one progress event is
// handled (used by Waitany-style loops).
func (ep *Endpoint) WaitAnyProgress() {
	if !ep.progressOnce() {
		ep.idle.Wait(ep.proc, whyWaitReq)
		ep.progressOnce()
	}
}

// NextCtx reports the next free matching-context id on this endpoint.
func (ep *Endpoint) NextCtx() int {
	if ep.nextCtx < 2 {
		ep.nextCtx = 2 // 0 and 1 belong to MPI_COMM_WORLD
	}
	return ep.nextCtx
}

// ReserveCtx marks context ids below bound as used.
func (ep *Endpoint) ReserveCtx(bound int) {
	if bound > ep.nextCtx {
		ep.nextCtx = bound
	}
}

// inbound routes a protocol envelope, enforcing per-connection sequencing
// for eager and RTS envelopes.
func (ep *Endpoint) inbound(env *envelope) {
	switch env.kind {
	case envCTS:
		ep.handleCTS(env)
		ep.pool.put(env)
		return
	case envFIN:
		ep.handleFIN(env)
		ep.pool.put(env)
		return
	case envDone:
		ep.handleDone(env)
		ep.pool.put(env)
		return
	}
	conn := ep.conns[env.src]
	if env.seq != conn.recvSeqNext {
		if conn.ooo == nil {
			conn.ooo = make(map[uint64]*envelope)
		}
		conn.ooo[env.seq] = env
		return
	}
	ep.dispatchSequenced(env)
	conn.recvSeqNext++
	for {
		next, ok := conn.ooo[conn.recvSeqNext]
		if !ok {
			break
		}
		delete(conn.ooo, conn.recvSeqNext)
		ep.dispatchSequenced(next)
		conn.recvSeqNext++
	}
}

// received runs the consume path of an inbound channel message: the
// credits it returns are booked, and it owes the peer one credit of the
// window it travelled under. Credit returns and health probes are
// control-plane traffic: credit-exempt, unsequenced, consumed here.
func (ep *Endpoint) received(env *envelope) {
	conn := ep.conns[env.src]
	ep.creditsArrived(conn, env)
	if env.kind == envCredit || env.kind == envProbe {
		ep.pool.put(env)
		return
	}
	ep.consumed(conn, env)
	ep.inbound(env)
}

// sendEnvelope transmits a channel message (anything carried by an OpSend:
// eager data, RTS/CTS/FIN/DONE, message-based RMA; or an eager ring write,
// whose slot wr already names), taking one credit of the window it travels
// under and piggybacking every owed credit. With the send/recv window empty
// the message waits in the channel's queue; the ring admits a message only
// with a free slot. The WR borrows the envelope's payload view; the
// envelope outlives the WR (it is freed by the receiver after delivery), so
// no extra reference is needed even across retransmissions.
func (ep *Endpoint) sendEnvelope(conn *Conn, rail int, env *envelope, wr *ib.SendWR, posted *Request) {
	if !conn.window(env.ring).take() {
		ep.stats.CreditStalls++
		conn.queue.Push(pendingEnvelope{rail, env, wr.N, posted})
		return
	}
	conn.credit.give(&env.credits)
	conn.window(true).give(&env.ringCredits)
	wr.WRID, wr.Data, wr.Signaled, wr.Ctx = ep.nextWRID(), env.pay.Bytes(), true, env
	if env.kind == envEager {
		// Eager data is payload: it consults the port's corruption plan.
		// Control envelopes (RTS/CTS/FIN, credits, probes, message-based
		// RMA) are VCRC-protected wire headers — never corrupted, so probes
		// can always reintegrate.
		wr.Payload, wr.NoCorrupt = true, env.noCorrupt
	}
	ep.post(conn, rail, *wr, posted)
}

// sendCtrl sends a rendezvous control message on the next control rail.
func (ep *Endpoint) sendCtrl(conn *Conn, env *envelope) {
	ep.sendEnvelope(conn, conn.ctrlRail(), env, &ib.SendWR{N: ep.m.CtrlMsgBytes}, nil)
	ep.stats.CtrlMsgs++
}

// creditsArrived books the credits an inbound message returns and sends
// the messages that stalled on the send/recv window. Nothing stalls on the
// ring — a full ring falls back to the send/recv window instead.
func (ep *Endpoint) creditsArrived(conn *Conn, env *envelope) {
	if env.credits > 0 {
		conn.credit.avail += env.credits
		for conn.queue.Len() > 0 && conn.credit.avail > 0 {
			pe := conn.queue.Pop()
			ep.sendEnvelope(conn, pe.rail, pe.env, &ib.SendWR{N: pe.wireN}, pe.posted)
		}
	}
	if w := conn.window(true); w != nil {
		w.avail += env.ringCredits
	}
}

// consumed owes the peer one credit of the window env travelled under and
// returns that window's owed credits explicitly once half of it is owed and
// no reverse traffic has carried them back.
func (ep *Endpoint) consumed(conn *Conn, env *envelope) {
	w := conn.window(env.ring)
	if w.owed++; w.owed < w.half {
		return
	}
	cr := ep.pool.get()
	cr.kind, cr.src = envCredit, ep.Rank
	if env.ring {
		w.give(&cr.ringCredits)
	} else {
		w.give(&cr.credits)
	}
	ep.charge(ep.m.CPUPostWQE + ep.m.DoorbellTime)
	// Credit messages are exempt from flow control: the receiver reserves
	// prepost slack for them (srqPrepost exceeds the credit pool).
	ep.post(conn, conn.ctrlRail(), ib.SendWR{
		WRID: ep.nextWRID(), Op: ib.OpSend,
		N: ep.m.CtrlMsgBytes, Signaled: true, Ctx: cr,
	}, nil)
	ep.stats.CreditUpdates++
}

// dispatchSequenced routes an in-sequence envelope: matched two-sided
// traffic or a one-sided operation applied at this target.
func (ep *Endpoint) dispatchSequenced(env *envelope) {
	switch env.kind {
	case envPut, envAccum, envGetReq, envAtomicReq:
		ep.charge(ep.m.CPUHeaderProc)
		ep.handleRMA(env)
		ep.pool.put(env)
	case envGetResp:
		ep.charge(ep.m.CPUHeaderProc)
		ep.handleGetResp(env)
		ep.pool.put(env)
	case envAtomicResp:
		ep.charge(ep.m.CPUHeaderProc)
		ep.handleAtomicResp(env)
		ep.pool.put(env)
	default:
		ep.handleMatchable(env)
	}
}

// handleMatchable processes an in-sequence eager or RTS envelope.
func (ep *Endpoint) handleMatchable(env *envelope) {
	ep.charge(ep.m.CPUHeaderProc)
	if req := ep.recvIx.match(env); req != nil {
		ep.matched(req, env)
		ep.pool.put(env)
		return
	}
	env.arrSeq = ep.arrSeq
	ep.arrSeq++
	ep.unexIx.add(env)
}

// deferredWR is a work request awaiting send-queue space, with the request
// (if any) that completes when it finally reaches the hardware.
type deferredWR struct {
	wr     ib.SendWR
	posted *Request
}

// railBacklog is one rail's WRs deferred on a full send queue, in post
// order, with the QP they wait for.
type railBacklog struct {
	qp *ib.QP
	q  []deferredWR
}

// drainBacklog retries WRs deferred on a full send queue, preserving their
// per-rail FIFO order. Nearly every send completion finds nothing deferred.
func (ep *Endpoint) drainBacklog(qpn int) {
	if len(ep.backlog) == 0 {
		return
	}
	b, ok := ep.backlog[qpn]
	if !ok {
		return
	}
	qp, q := b.qp, b.q
	if qp.IsDown() {
		return // quarantine rerouted (or will reroute) this rail's backlog
	}
	for len(q) > 0 {
		if err := qp.PostSend(q[0].wr); err == ib.ErrSQFull {
			break
		} else if err != nil {
			panic(fmt.Sprintf("adi: backlog repost failed: %v", err))
		}
		if q[0].posted != nil {
			q[0].posted.done = true
		}
		q[0] = deferredWR{} // unpin the WR payload and request
		q = q[1:]
	}
	if len(q) == 0 {
		delete(ep.backlog, qpn)
	} else {
		ep.backlog[qpn] = railBacklog{qp, q}
	}
}

// post sends a WR on a rail, deferring it on backpressure. posted, when
// non-nil, is marked done when the WR actually reaches the hardware —
// immediately on the fast path (buffered-send completion, carried as the
// request itself so an eager send allocates no closure).
// A dead target rail is stepped over to the next live one; with every rail
// dead the WR parks until a recovery.
func (ep *Endpoint) post(conn *Conn, rail int, wr ib.SendWR, posted *Request) {
	if d := conn.sched.Dead; d != 0 {
		if lr := d.NextLive(rail, len(conn.rails)); lr >= 0 {
			rail = lr
		} else {
			conn.rel.railWait = append(conn.rel.railWait, deferredWR{wr, posted})
			return
		}
	}
	if ep.inflight != nil {
		fl := ep.pool.fls.Get()
		fl.conn, fl.rail, fl.wr = conn, rail, wr
		if ep.rel != nil {
			fl.deadline = ep.wrDeadline(rail, wr.N)
		}
		ep.inflight[wr.WRID] = fl
	}
	qp := ep.railQP(conn, rail)
	if b, ok := ep.backlog[qp.QPN]; ok {
		ep.backlog[qp.QPN] = railBacklog{qp, append(b.q, deferredWR{wr, posted})}
		return
	}
	if err := qp.PostSend(wr); err == ib.ErrSQFull {
		ep.backlog[qp.QPN] = railBacklog{qp, []deferredWR{{wr, posted}}}
		return
	} else if err == ib.ErrQPDown && ep.rel != nil {
		// Hard evidence the rail is dead, discovered at post time: the
		// reliability layer quarantines it (setting its Dead bit) and the
		// recursive post steps onto a survivor or parks in railWait.
		ep.putFl(wr.WRID)
		ep.railFailed(conn, rail)
		ep.post(conn, rail, wr, posted)
		return
	} else if err != nil {
		panic(fmt.Sprintf("adi: PostSend failed: %v", err))
	}
	if posted != nil {
		posted.done = true
	}
}

// nextWRID allocates a work-request identifier.
func (ep *Endpoint) nextWRID() uint64 {
	ep.wrID++
	return ep.wrID
}

// stripeKind names what a completion record finishes.
type stripeKind uint8

const (
	stripeRndvWrite stripeKind = iota // handleCTS: a rendezvous RDMA-write stripe
	stripeRndvRead                    // startRead: an RGET RDMA-read stripe
	stripePut                         // PutBulk: a one-sided RDMA-write stripe
	stripeGet                         // GetBulk: a one-sided RDMA-read stripe
	stripeAtomic                      // FetchAtomic: the CQE carries the old value
)

// stripe is the completion context of one bulk stripe or atomic WR, found
// by WRID in onComplete when its CQE is reaped, the way verbs software
// finds a completion's context from its wr_id. Records are stored by value:
// at 64 bytes they sit inline in the map's slots, so the map's storage is
// the record pool and a striped transfer allocates nothing per stripe.
type stripe struct {
	kind stripeKind
	req  *Request // counted request (writesLeft), or the atomic's request
	peer *Request // rendezvous: the peer-side request named in FIN or DONE
	conn *Conn
	sv   buf.View // retained source sub-view of a write stripe
}

// newStripe records the completion context of the next WR and returns
// that WR's identifier.
func (ep *Endpoint) newStripe(st stripe) uint64 {
	wrid := ep.nextWRID()
	ep.onComplete[wrid] = st
	return wrid
}

// postStripes posts one RDMA write or read per stripe of plan, each
// completing through a copy of the record st. A write sends a retained
// sub-view of the request's wrapped source buffer (no stripe copy exists
// anywhere, and a stripe retransmitted after a rail death still holds its
// own live reference on the source bytes); a read lands in the request's
// own buffer. Stripe s targets remote offset base+s.Off under rkey.
func (ep *Endpoint) postStripes(conn *Conn, plan []core.Stripe, st stripe, op ib.Opcode, rkey uint32, base int, kind trace.Kind) {
	req := st.req
	req.writesLeft = len(plan)
	for _, s := range plan {
		var chunk []byte
		if op == ib.OpRDMARead {
			if req.data != nil {
				chunk = req.data[s.Off : s.Off+s.N]
			}
			ep.stats.StripesRead++
		} else {
			if !req.owner.Zero() {
				st.sv = req.owner.Slice(s.Off, s.N).Retain()
				chunk = st.sv.Bytes()
			}
			ep.stats.StripesSent++
		}
		ep.charge(ep.m.CPUPostWQE + ep.m.DoorbellTime)
		ep.post(conn, s.Rail, ib.SendWR{
			WRID: ep.newStripe(st), Op: op,
			Data: chunk, N: s.N, RKey: rkey, RemoteOff: base + s.Off,
			Signaled: true, Payload: true, NoCorrupt: req.noCorrupt,
		}, nil)
		ep.trace(kind, conn.peer, s.N, s.Rail)
	}
}

// stripeDone completes a WR through its record, which the caller has
// already removed from onComplete: the source sub-view is released, the
// request's stripe count drops, and the last stripe runs the transfer's
// finish step.
func (ep *Endpoint) stripeDone(st stripe, atomicOld uint64) {
	req := st.req
	if st.kind == stripeAtomic {
		req.atomicOld = atomicOld
		req.done = true
		return
	}
	st.sv.Release()
	if req.writesLeft--; req.writesLeft > 0 {
		return
	}
	switch st.kind {
	case stripeRndvWrite:
		ep.finishRendezvous(st.conn, req, st.peer)
	case stripeRndvRead:
		ep.finishRead(st.conn, req, st.peer)
	case stripePut:
		req.owner.Release()
		req.owner = buf.View{}
		req.done = true
	case stripeGet:
		req.done = true
	}
}

// ---- rail-failure recovery ----

// retransmit reroutes a work request flushed by a rail failure onto a
// surviving rail of the same connection (in-flight stripe recovery). The WR
// keeps its identifier, so pending completion callbacks survive the retry.
// The flush is hard evidence against the rail — it is quarantined on the
// spot — and the repost waits out a seed-jittered exponential backoff, so a
// mass flush does not slam the survivors in one instant.
func (ep *Endpoint) retransmit(wrid uint64) {
	fl, ok := ep.inflight[wrid]
	if !ok {
		panic("adi: flushed WR was not tracked (reliability layer not armed?)")
	}
	conn, rail, wr, attempt := fl.conn, fl.rail, fl.wr, fl.attempt
	ep.putFl(wrid)
	ep.stats.RailRetransmits++
	ep.charge(ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.trace(trace.KindRetransmit, conn.peer, wr.N, rail)
	ep.railFailed(conn, rail)
	delay := ep.backoffDelay(ep.rel.RetryBase, ep.rel.RetryMax, attempt, wrid)
	attempt++
	ep.eng.Post(ep.eng.Now()+delay, func() {
		ep.repostAfterBackoff(conn, rail, wr, attempt)
	})
}

package adi

import (
	"strconv"

	"ib12x/internal/buf"
	"ib12x/internal/core"
	"ib12x/internal/ib"
	"ib12x/internal/model"
	"ib12x/internal/regcache"
	"ib12x/internal/shmem"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// Options configures world construction.
type Options struct {
	// Policy selects a built-in scheduling policy kind. Ignored if
	// PolicyImpl is set.
	Policy core.Kind
	// PolicyImpl overrides the policy with a custom implementation.
	PolicyImpl core.Policy
	// BindRail, if set, chooses the bound rail per (rank, peer)
	// connection — the knob behind the binding policy. Defaults to rail 0.
	BindRail func(rank, peer int) int
	// SQDepth overrides the per-QP send queue depth (default 128).
	SQDepth int
	// Rndv selects the rendezvous protocol (default RndvWrite, the
	// paper's RPUT; RndvRead is the MVAPICH RGET variant).
	Rndv RndvProto
	// EagerProto selects the eager channel (default EagerSendRecv, the
	// historical send/recv path; EagerRDMAWrite negotiates a persistent
	// per-peer ring per connection direction at connect — DESIGN.md §16).
	EagerProto EagerProto
	// Trace, when non-nil, receives every rank's protocol events.
	Trace *trace.Recorder
	// RegCache, when non-nil, arms the pin-down registration cache on every
	// endpoint: rendezvous and one-sided bulk transfers pay virtual-time
	// registration charges for buffers the per-endpoint LRU does not cover.
	// nil preserves the historical free-registration behavior.
	RegCache *regcache.Config
	// Integrity selects the end-to-end checksum mode (integrity.go;
	// DESIGN.md §17). The zero value (IntegrityOff) preserves every
	// historical digest. IntegrityVerify implies in-flight WR tracking (a
	// NACK is traced and struck against the rail its WR was posted on).
	Integrity IntegrityMode
}

// World is a simulated MPI job: hardware topology plus one endpoint per
// rank. A rank pair's connection is wired the first time either side
// initiates traffic to the other (DESIGN.md §19).
type World struct {
	Eng       *sim.Engine
	M         *model.Params
	Cluster   *topo.Cluster
	Realm     *ib.Realm
	Endpoints []*Endpoint

	opt  Options // BindRail defaulted; read by connect
	bufs *buf.Pool
	rel  *ReliabilityConfig
}

// Group reports nil. Like the one ignored field of mpi.Config it is kept
// only so the nested benchmark module (benchmark/rep.go calls it for an
// event count) compiles; delete the two together in the next benchmark PR
// (DESIGN.md §14).
func (w *World) Group() *sim.Engine { return nil }

// BufLive reports payload blocks handed out of the world's buffer pool and
// not yet released. After every request of a quiesced run has completed it
// must be zero — the chaos oracle enforces that as a leak invariant.
func (w *World) BufLive() int { return w.bufs.Live() }

// EnableBufAudit arms allocation-site recording on the world's payload pool:
// every view handed out is stamped with its owner tag and the virtual time
// of the allocation, so a BufLive leak report names the site, not just the
// count. Call before the run starts.
func (w *World) EnableBufAudit() {
	w.bufs.EnableAudit(func() int64 { return int64(w.Eng.Now()) })
}

// BufLiveReport names each outstanding payload allocation by owner tag and
// allocation time ("" when nothing is outstanding or auditing is off).
func (w *World) BufLiveReport() string { return w.bufs.LiveReport() }

// trackWRs arms in-flight work-request tracking on every endpoint, so a
// flushed WR can be rerouted and a NACKed one named in the trace; fault-free
// worlds skip the bookkeeping. Idempotent.
func (w *World) trackWRs() {
	for _, ep := range w.Endpoints {
		if ep.inflight == nil {
			ep.inflight = make(map[uint64]*inflightWR)
		}
	}
}

// EnableReliability arms the self-healing rail layer on every endpoint: the
// per-rail health state machine, virtual-time completion deadlines, backoff
// retransmission, and probe-driven reintegration (see reliability.go). It
// arms in-flight WR tracking too and must be called before the run starts
// and before any SetRail; a second call keeps the first config. The layer
// is the only code that changes a rail's policy-visible health: SetRail
// flips QP hardware state, and the endpoints detect failures and recoveries
// on their own.
func (w *World) EnableReliability(cfg ReliabilityConfig) {
	if w.rel != nil {
		return
	}
	rc := cfg.withDefaults()
	w.rel = rc
	w.trackWRs()
	for _, ep := range w.Endpoints {
		ep.rel = rc
		ep.probes = make(map[uint64]probeRef)
		ep.startHealthTimer()
	}
}

// Reliability reports the armed reliability config (nil when the layer is
// off).
func (w *World) Reliability() *ReliabilityConfig { return w.rel }

// SetRail fails (up=false) or recovers (up=true) rail index rail of every
// inter-node connection touching the given node: both QP halves transition
// together. Only the hardware state flips; the reliability layer, which
// must be armed (EnableReliability), discovers the change on each endpoint
// and updates the policy-visible health mask itself.
//
// Every pair touching the node is wired first, with all its rails built,
// so a rail event reaches the same QPs as in a world wired up front, and
// neither a connection nor a rail built later misses a failure.
func (w *World) SetRail(node, rail int, up bool) {
	if w.rel == nil {
		panic("adi: SetRail without EnableReliability")
	}
	for i, epi := range w.Endpoints {
		if w.Cluster.NodeOf(i) != node {
			continue
		}
		for j := range w.Endpoints {
			epi.Conn(j)
		}
	}
	for i, epi := range w.Endpoints {
		if w.Cluster.NodeOf(i) != node {
			continue
		}
		for _, conn := range epi.wired {
			if conn.sh != nil || rail < 0 || rail >= len(conn.rails) {
				continue
			}
			qpi := conn.rails[rail]
			qpj := qpi.Remote()
			if up {
				qpi.SetUp()
				qpj.SetUp()
			} else {
				qpi.SetDown()
				qpj.SetDown()
			}
		}
	}
}

// NewWorld builds the cluster hardware and one endpoint per rank. No process
// pair is wired yet: each pair gets its shared-memory link or `spec.Rails()`
// QP rails when either side first initiates traffic to the other (connect).
func NewWorld(eng *sim.Engine, m *model.Params, spec topo.Spec, opt Options) *World {
	cluster := topo.Build(spec, m)
	realm := ib.NewRealm(eng, m)

	policy := opt.PolicyImpl
	if policy == nil {
		policy = core.New(opt.Policy, m.MinStripe)
	}

	if opt.BindRail == nil {
		opt.BindRail = func(rank, peer int) int { return 0 }
	}
	w := &World{Eng: eng, M: m, Cluster: cluster, Realm: realm, opt: opt}
	n := spec.Size()
	// One object pool and one payload-block pool per world: envelopes and
	// payloads are allocated at the sender but freed at the receiver, so
	// they must span endpoints.
	pool := &pools{}
	w.bufs = &buf.Pool{}
	for r := 0; r < n; r++ {
		ep := newEndpoint(r, eng, m, realm, policy, opt.Rndv, pool, w.bufs)
		ep.w = w
		ep.integrity = opt.Integrity
		ep.tr = opt.Trace
		if opt.RegCache != nil {
			// Per-endpoint state, not a global constant: each rank's cache
			// warms and evicts on its own traffic (Zambre et al.'s endpoint
			// independence argument).
			ep.reg = regcache.New(*opt.RegCache)
		}
		w.Endpoints = append(w.Endpoints, ep)
	}

	if opt.Integrity == IntegrityVerify {
		// Arm the receiving-HCA check and the WR tracking that names each
		// NACK's connection and rail.
		realm.EnableIntegrity()
		w.trackWRs()
	}
	return w
}

// connect wires the rank pair i < j, both halves at once: a shared-memory
// link each way within a node, or an RC channel each way between nodes —
// the slots of `Rails()` QP pairs, the send/recv window, the eager ring
// under EagerRDMAWrite (negotiateRings). A rail's QP pair is built when
// something first posts on it (buildRails).
//
// An inter-node pair costs two allocations here whatever its rail count:
// one record holding both Conns and one array backing both halves' rail
// slices. It reserves the 2·Rails() QPNs an up-front build would have
// given its QPs, so a rail built later gets the same numbers.
func (w *World) connect(i, j int) {
	epi, epj := w.Endpoints[i], w.Endpoints[j]
	m, opt, cl := w.M, &w.opt, w.Cluster
	pair := &[2]Conn{{peer: j}, {peer: i}}
	ci, cj := &pair[0], &pair[1]
	if cl.SameNode(i, j) {
		ci.sh = shmem.New(w.Eng, m)
		cj.sh = shmem.New(w.Eng, m)
		ci.sh.SetDeliver(shmemSink(epj))
		cj.sh.SetDeliver(shmemSink(epi))
	} else {
		nr := cl.Spec.Rails()
		rails := make([]*ib.QP, 2*nr)
		qpn := w.Realm.ReserveQPNs(2 * nr)
		ci.rcChannel = rcChannel{rails: rails[:nr:nr], qpn: qpn, sched: core.ConnState{Bound: opt.BindRail(i, j)}, credit: newWindow(m.EagerCredits)}
		cj.rcChannel = rcChannel{rails: rails[nr:], qpn: qpn, sched: core.ConnState{Bound: opt.BindRail(j, i)}, credit: newWindow(m.EagerCredits)}
		w.negotiateRings(ci, cj)
	}
	epi.addConn(ci)
	epj.addConn(cj)
}

// buildRails builds rail r of the inter-node pair between rank and c's
// peer, both QP halves at once; r < 0 builds every rail still missing.
// The pair's first rail is built alone, in a block of two QPs: a pair that
// carries one eager message (a drain barrier's) needs no more. Its next
// build makes every remaining rail in one block, so a pair costs at most
// two QP blocks.
//
// Each QP takes the QPN connect reserved for it (rail r's halves get
// qpn+2r and qpn+2r+1, the order the up-front build numbered them in), and
// each flow its route key from pairsBefore, not from the ports' creation
// counters, so every key is the one the all-pairs build (pairs (i, j) in
// lexicographic order, rails in order, ib.Connect each) gave, whichever
// pair and rail are used first.
func (w *World) buildRails(rank int, c *Conn, r int) {
	i, j := min(rank, c.peer), max(rank, c.peer)
	epi, epj := w.Endpoints[i], w.Endpoints[j]
	ci, cj := epi.conns[j], epj.conns[i]
	nr, missing := len(ci.rails), 0
	for _, qp := range ci.rails {
		if qp == nil {
			missing++
		}
	}
	if r >= 0 && missing == nr {
		missing = 1 // the pair's first rail: build it alone
	} else {
		r = -1 // build every rail still missing
	}
	qps := make([]ib.QP, 2*missing)
	// Every inter-node pair puts QPsPerPort rails on each port of both
	// nodes, and each rail takes two flow ordinals per port: its own
	// transmit flow and the peer's responder flow.
	cl, opt := w.Cluster, &w.opt
	q := cl.Spec.QPsPerPort
	baseI := 2 * q * w.pairsBefore(cl.NodeOf(i), i, j)
	baseJ := 2 * q * w.pairsBefore(cl.NodeOf(j), i, j)
	portsI, portsJ := cl.PortsOf(i), cl.PortsOf(j)
	for x := range nr {
		if ci.rails[x] != nil || (r >= 0 && x != r) {
			continue
		}
		pidx, k := x/q, x%q
		qpi, qpj := &qps[0], &qps[1]
		qps = qps[2:]
		w.Realm.InitQPAt(qpi, ib.QPConfig{Port: portsI[pidx], CQ: epi.cq, SRQ: epi.srq, SQDepth: opt.SQDepth}, ci.qpn+2*x)
		w.Realm.InitQPAt(qpj, ib.QPConfig{Port: portsJ[pidx], CQ: epj.cq, SRQ: epj.srq, SQDepth: opt.SQDepth}, ci.qpn+2*x+1)
		if err := ib.ConnectAt(qpi, qpj, uint64(baseI+2*k+1), uint64(baseJ+2*k+1)); err != nil {
			panic(err)
		}
		ci.rails[x], cj.rails[x] = qpi, qpj
	}
}

// pairsBefore counts the inter-node rank pairs x < y that touch node a and
// precede (i, j) in lexicographic order: the pairs whose rails the
// all-pairs build wired onto a's ports before (i, j)'s.
func (w *World) pairsBefore(a, i, j int) int {
	p, n := w.Cluster.Spec.ProcsPerNode, len(w.Endpoints)
	lo, hi := a*p, a*p+p // node a's ranks
	// Pairs led by a rank below i: a's ranks pair with every rank above
	// node a, and earlier nodes' ranks pair with each of a's.
	t := min(max(i-lo, 0), p)*(n-hi) + min(i, lo)*p
	// Pairs (i, y) with i < y < j.
	if i >= lo && i < hi {
		t += (j - i - 1) - max(0, min(j, hi)-i-1) // y off node a
	} else {
		t += max(0, min(j, hi)-max(i+1, lo)) // y on node a
	}
	return t
}

// shmemSink delivers an intra-node message into an endpoint's inbox and
// wakes its rank.
func shmemSink(ep *Endpoint) func(shmem.Msg) {
	return func(msg shmem.Msg) {
		ep.shmemIn.Put(msg)
		ep.wake()
	}
}

// Spawn starts one simulated process per rank running body and returns the
// procs. body runs with the endpoint already attached.
func (w *World) Spawn(name string, body func(ep *Endpoint)) []*sim.Proc {
	procs := make([]*sim.Proc, len(w.Endpoints))
	for i, ep := range w.Endpoints {
		ep := ep
		procs[i] = w.Eng.Spawn(procName(name, ep.Rank), func(p *sim.Proc) {
			ep.Attach(p)
			body(ep)
		})
	}
	return procs
}

func procName(base string, rank int) string {
	return base + "/rank" + strconv.Itoa(rank)
}

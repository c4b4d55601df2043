// Package mpi is the public MPI-like interface of the library: an
// MPI_COMM_WORLD-style communicator with blocking and non-blocking
// point-to-point operations and point-to-point-based collectives, running
// over the ADI layer, the multi-rail communication scheduler, and the
// simulated IBM 12x InfiniBand cluster.
//
// A job is launched with Run: one coroutine-backed simulated process per
// rank executes the supplied body against a deterministic virtual clock.
// All times reported by Comm.Time are virtual.
//
// The communication marker of the paper operates invisibly here: Send/Recv
// mark traffic blocking, Isend/Irecv non-blocking, and the collectives mark
// their internal transfers collective — which is what lets the EPC policy
// pick striping or round robin per pattern.
package mpi

import (
	"fmt"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// Re-exported ADI types: the MPI layer adds no state to them.
type (
	// Request is a handle to a pending non-blocking operation.
	Request = adi.Request
	// Status describes a completed receive.
	Status = adi.Status
)

// Wildcards.
const (
	AnySource = adi.AnySource
	AnyTag    = adi.AnyTag
)

// Config is the one description of a simulated job: cluster shape, rails,
// policy, protocols, fabric and faults. Run builds the two internal views of
// it, topo.Spec (the hardware) and adi.Options (the endpoints); the bench
// figures and the chaos oracle carry a Config rather than mirroring its
// fields. Zero fields select the defaults; Validate rejects the rest.
type Config struct {
	Nodes        int // number of nodes (default 2)
	ProcsPerNode int // ranks per node (default 1)
	HCAs         int // HCAs per node (default 1)
	Ports        int // ports per HCA (default 1)
	QPsPerPort   int // QPs (rails) per port (default 1)

	Policy core.Kind     // scheduling policy (default Original)
	Model  *model.Params // hardware model (default model.Default())
	// PolicyImpl overrides Policy with a custom core.Policy (for
	// weighted striping or experimental schedulers).
	PolicyImpl core.Policy

	// Rndv selects the rendezvous protocol: adi.RndvWrite (default, the
	// paper's sender-writes RPUT) or adi.RndvRead (receiver-reads RGET).
	Rndv adi.RndvProto
	// EagerProto selects the eager channel: adi.EagerSendRecv (default,
	// the historical send/recv path, matching every historical digest) or
	// adi.EagerRDMAWrite (persistent per-peer ring buffers with header
	// caching — the Liu et al. small-message fast path, DESIGN.md §16).
	EagerProto adi.EagerProto
	// Trace, when non-nil, records every rank's protocol events.
	Trace *trace.Recorder
	// Chaos, when non-nil, is a fault plan armed against the world before
	// the run starts (implemented by *chaos.Plan; the interface keeps the
	// chaos package, whose oracle drives this one, out of mpi's imports).
	// A plan aimed at a node, rail, port or fabric plane the world does not
	// have fails Run before any rank runs.
	Chaos ChaosPlan
	// Reliability, when non-nil, arms the self-healing rail layer with this
	// config before the run starts: endogenous failure detection, backoff
	// retransmit, probe-driven reintegration. A Chaos plan with rail events
	// arms the layer with the default config when this is nil; either way
	// rail events only flip QP hardware state and the endpoints discover
	// the change.
	Reliability *adi.ReliabilityConfig
	// RegCache, when non-nil, arms the pin-down registration cache on
	// every endpoint: rendezvous and one-sided bulk transfers pay
	// virtual-time registration charges unless the per-endpoint LRU
	// already covers the buffer. nil (the default) keeps registration
	// free, matching all historical digests.
	RegCache *regcache.Config
	// Integrity selects the end-to-end payload checksum mode (DESIGN.md
	// §17): adi.IntegrityOff (default, historical digests), IntegrityAudit
	// (checksums carried for self-checking, corruption still delivered and
	// tallied), or IntegrityVerify (capture/verify checksum charges, corrupt
	// placements suppressed at the receiving HCA, NACK-driven retransmit).
	Integrity adi.IntegrityMode
	// BufAudit arms allocation-site tagging on the payload pool so a
	// BufLive leak report names the owning protocol path.
	BufAudit bool
	// Deadline, when positive, bounds the run in virtual time: if any rank
	// is still alive when the clock reaches it, Run returns a watchdog
	// error listing the stuck ranks instead of simulating forever. The
	// chaos oracle's no-deadlock invariant runs on this.
	Deadline sim.Time
	// NodesPerSwitch groups nodes under the leaf switches of a fat tree
	// (0 = the paper's single switch); TrunkRate sets the bandwidth of
	// every inter-switch lane (0 = the link rate).
	NodesPerSwitch int
	TrunkRate      float64
	// Tiers picks the tree's depth (2, the default once NodesPerSwitch is
	// set, or 3) and SpinesPerPod its spine count; Dragonfly selects the
	// dragonfly fabric instead; Routing picks static D-mod-K vs adaptive
	// path selection (topo.Spec has the full shape semantics).
	Tiers        int
	SpinesPerPod int
	Dragonfly    topo.Dragonfly
	Routing      fabric.Routing
	// Shards is ignored: the sharded engine was removed (DESIGN.md §14).
	// The field is kept only so the nested benchmark module compiles;
	// delete it together with sim.shard2_speedup in the next benchmark PR.
	Shards int

	// CollAlg selects the collective-algorithm family for every
	// communicator of the run (see lanes.go). The zero value CollStriped
	// keeps the reference algorithms — binomial bcast, recursive-doubling
	// allreduce, ring allgather — whose multi-rail use happens below the
	// algorithm, in the transport's stripe planner, matching every
	// historical digest. CollLane switches Bcast/Allgather/Reduce/
	// Allreduce to lane-decomposed variants (one sub-collective per rail);
	// CollAuto dispatches per operation on payload size. Per-communicator
	// override: Comm.SetCollAlg.
	CollAlg CollAlg
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 1
	}
	if c.HCAs == 0 {
		c.HCAs = 1
	}
	if c.Ports == 0 {
		c.Ports = 1
	}
	if c.QPsPerPort == 0 {
		c.QPsPerPort = 1
	}
	return c
}

// Size reports the world size the config produces.
func (c Config) Size() int {
	c = c.withDefaults()
	return c.Nodes * c.ProcsPerNode
}

// ChaosPlan is a scheduled fault plan injectable into a run (see
// internal/chaos). Arm schedules the plan's events on the engine against the
// freshly built world, before any rank starts. It returns an error, and
// arms nothing, when an event targets something the world does not have.
type ChaosPlan interface {
	Arm(eng *sim.Engine, w *adi.World) error
}

// Report summarises a finished run.
type Report struct {
	// Elapsed is the virtual time at which the slowest rank finished the
	// body (before the final drain barrier).
	Elapsed sim.Time
	// BodyEnd is each rank's body completion time.
	BodyEnd []sim.Time
	// RankStats is each rank's ADI protocol counters.
	RankStats []adi.Stats
	// World exposes the underlying hardware for counter inspection.
	World *adi.World
}

// Run executes body on every rank of a simulated cluster and returns when
// the virtual job completes. A drain barrier runs after the body so all
// in-flight traffic settles before the simulation ends. A config Validate
// rejects, or a Chaos plan whose Arm rejects the built world, is an error
// before any rank runs.
func Run(cfg Config, body func(c *Comm)) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	eng, world := cfg.build()
	rep := newReport(world, cfg.Size())
	// Reliability arms before the chaos plan, so the plan's own default
	// arming finds the caller's config already in place.
	if cfg.Reliability != nil {
		world.EnableReliability(*cfg.Reliability)
	}
	if cfg.BufAudit {
		world.EnableBufAudit()
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Arm(eng, world); err != nil {
			return nil, err
		}
	}
	spawnRanks(world, cfg.Size(), rep, cfg.CollAlg, body)
	if cfg.Deadline > 0 {
		if err := eng.RunUntil(cfg.Deadline); err != nil {
			return nil, fmt.Errorf("mpi: %w", err)
		}
		if n := eng.LiveProcs(); n > 0 {
			return nil, fmt.Errorf("mpi: watchdog: %d ranks still running at virtual deadline %v; parked: %v",
				n, cfg.Deadline, eng.ParkedProcs())
		}
	} else if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	rep.finish()
	return rep, nil
}

// build makes the engine and the world of a defaulted, valid config. The
// default model is built here, not in withDefaults, so that Validate and
// Size allocate nothing.
func (c Config) build() (*sim.Engine, *adi.World) {
	m := c.Model
	if m == nil {
		m = model.Default()
	}
	eng := sim.NewEngine()
	return eng, adi.NewWorld(eng, m, c.spec(), c.adiOptions())
}

// Validate reports the first value of the job that no layer below accepts,
// naming its field: a cluster shape or fabric topo.Spec.Validate rejects, an
// enum out of range, or a negative Deadline, Reliability or RegCache
// setting — values the layers would otherwise panic on, deadlock on, or
// silently read as a default. Zero fields select the defaults. Run calls it
// before building anything; a caller that sizes its own state from the
// config calls it first.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.spec().Validate(); err != nil {
		return err
	}
	switch {
	case c.PolicyImpl == nil && (c.Policy < core.Original || c.Policy > core.Adaptive):
		return fmt.Errorf("mpi: Policy = %d, not a core.Kind", int(c.Policy))
	case c.EagerProto != adi.EagerSendRecv && c.EagerProto != adi.EagerRDMAWrite:
		return fmt.Errorf("mpi: EagerProto = %d, not an adi.EagerProto", int(c.EagerProto))
	case c.Rndv != adi.RndvWrite && c.Rndv != adi.RndvRead:
		return fmt.Errorf("mpi: Rndv = %d, not an adi.RndvProto", int(c.Rndv))
	case c.Integrity < adi.IntegrityOff || c.Integrity > adi.IntegrityVerify:
		return fmt.Errorf("mpi: Integrity = %d, not an adi.IntegrityMode", int(c.Integrity))
	case c.CollAlg < CollStriped || c.CollAlg > CollAuto:
		return fmt.Errorf("mpi: CollAlg = %d, not an mpi.CollAlg", int(c.CollAlg))
	case c.Deadline < 0:
		return fmt.Errorf("mpi: Deadline = %v, need ≥ 0 (0 = no watchdog)", c.Deadline)
	}
	// Zero selects a layer's default, so only a negative (or NaN) value is
	// wrong; the layers below would panic on it or quietly run with it. An
	// unarmed layer reads as all defaults.
	var r adi.ReliabilityConfig
	if c.Reliability != nil {
		r = *c.Reliability
	}
	var rc regcache.Config
	if c.RegCache != nil {
		rc = *c.RegCache
	}
	if !(r.DeadlineScale >= 0) {
		return fmt.Errorf("mpi: Reliability.DeadlineScale = %g, need ≥ 0 (0 = the default)", r.DeadlineScale)
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"Reliability.Deadline", int64(r.Deadline)}, {"Reliability.CheckInterval", int64(r.CheckInterval)},
		{"Reliability.SuspectAfter", int64(r.SuspectAfter)},
		{"Reliability.RetryBase", int64(r.RetryBase)}, {"Reliability.RetryMax", int64(r.RetryMax)},
		{"Reliability.ProbeBase", int64(r.ProbeBase)}, {"Reliability.ProbeMax", int64(r.ProbeMax)},
		{"RegCache.CapacityBytes", rc.CapacityBytes}, {"RegCache.CapacityEntries", int64(rc.CapacityEntries)},
		{"RegCache.PageBytes", int64(rc.PageBytes)},
		{"RegCache.PinPerPage", int64(rc.PinPerPage)}, {"RegCache.PinSyscall", int64(rc.PinSyscall)},
	} {
		if f.v < 0 {
			return fmt.Errorf("mpi: %s = %d, need ≥ 0 (0 = the default)", f.name, f.v)
		}
	}
	return nil
}

// spec maps the config's cluster shape and fabric onto the topology.
func (c Config) spec() topo.Spec {
	return topo.Spec{
		Nodes:          c.Nodes,
		ProcsPerNode:   c.ProcsPerNode,
		HCAsPerNode:    c.HCAs,
		PortsPerHCA:    c.Ports,
		QPsPerPort:     c.QPsPerPort,
		NodesPerSwitch: c.NodesPerSwitch,
		TrunkRate:      c.TrunkRate,
		Tiers:          c.Tiers,
		SpinesPerPod:   c.SpinesPerPod,
		Dragonfly:      c.Dragonfly,
		Routing:        c.Routing,
	}
}

// adiOptions maps the config onto world-construction options.
func (c Config) adiOptions() adi.Options {
	return adi.Options{
		Policy:     c.Policy,
		PolicyImpl: c.PolicyImpl,
		Rndv:       c.Rndv,
		EagerProto: c.EagerProto,
		Trace:      c.Trace,
		RegCache:   c.RegCache,
		Integrity:  c.Integrity,
	}
}

func newReport(world *adi.World, size int) *Report {
	return &Report{
		BodyEnd:   make([]sim.Time, size),
		RankStats: make([]adi.Stats, size),
		World:     world,
	}
}

// spawnRanks launches the per-rank procs.
func spawnRanks(world *adi.World, size int, rep *Report, alg CollAlg, body func(c *Comm)) {
	world.Spawn("mpi", func(ep *adi.Endpoint) {
		c := newWorld(ep, size, alg)
		body(c)
		rep.BodyEnd[ep.Rank] = ep.Now()
		c.Barrier() // drain
		rep.RankStats[ep.Rank] = ep.Stats()
	})
}

func (rep *Report) finish() {
	for _, t := range rep.BodyEnd {
		if t > rep.Elapsed {
			rep.Elapsed = t
		}
	}
}

// Comm is a communicator. Run hands every rank MPI_COMM_WORLD; Split
// derives sub-communicators with their own rank numbering and isolated
// matching contexts.
type Comm struct {
	ep        *adi.Endpoint
	size      int
	collTag   int // per-communicator collective tag sequence
	nextWinID int // RMA window id sequence (symmetric across ranks)

	rank    int   // my rank within this communicator
	group   []int // comm rank -> world rank (nil for identity/world)
	inverse map[int]int
	ctxP2P  int // matching context for point-to-point traffic
	ctxColl int // matching context for collective traffic
	nextCtx int // context allocator for children (symmetric across ranks)

	// collAlg selects the collective-algorithm family (inherited by Split
	// children; overridable per communicator with SetCollAlg — like the
	// algorithm, the setting must be symmetric across ranks). lanes is the
	// inter-node rail width lane decomposition partitions against — a
	// topology constant, identical on every rank (0 on single-node
	// worlds, which keeps every collective on the reference path).
	collAlg CollAlg
	lanes   int

	// red is the typed reductions' grow-only scratch pair (scratch).
	red [2][]byte
}

// newWorld builds the MPI_COMM_WORLD communicator for an endpoint.
func newWorld(ep *adi.Endpoint, size int, alg CollAlg) *Comm {
	return &Comm{
		ep: ep, size: size, rank: ep.Rank,
		ctxP2P: adi.CtxPt2Pt, ctxColl: adi.CtxCollective, nextCtx: 2,
		collAlg: alg, lanes: ep.InterRails(),
	}
}

// Rank reports the calling process's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in this communicator.
func (c *Comm) Size() int { return c.size }

// world translates a communicator rank to a world rank. Wildcards pass
// through.
func (c *Comm) world(r int) int {
	if c.group == nil || r < 0 {
		return r
	}
	return c.group[r]
}

// local translates a world rank back to this communicator's numbering.
func (c *Comm) local(worldRank int) int {
	if c.group == nil || worldRank < 0 {
		return worldRank
	}
	return c.inverse[worldRank]
}

// localStatus rewrites a status's source into communicator numbering.
func (c *Comm) localStatus(st Status) Status {
	st.Source = c.local(st.Source)
	return st
}

// Time reports the current virtual time.
func (c *Comm) Time() sim.Time { return c.ep.Now() }

// Wtime reports the current virtual time in seconds (MPI_Wtime).
func (c *Comm) Wtime() float64 { return c.ep.Now().Seconds() }

// Compute advances the rank's virtual clock by d of modeled computation.
func (c *Comm) Compute(d sim.Time) { c.ep.Compute(d) }

// Endpoint exposes the underlying ADI endpoint (for stats and probes).
func (c *Comm) Endpoint() *adi.Endpoint { return c.ep }

// Group returns the communicator's members as world ranks, in rank order
// (a copy; nil-safe for the world communicator, which returns the identity).
func (c *Comm) Group() []int {
	out := make([]int, c.size)
	for i := range out {
		out[i] = c.world(i)
	}
	return out
}

// nextCollTag returns the tag for the next collective operation. MPI
// requires all ranks to call collectives in the same order, so the
// per-communicator sequence stays aligned across ranks.
func (c *Comm) nextCollTag() int {
	t := c.collTag
	c.collTag++
	return t
}

package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/mpi"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// OracleConfig selects one cell of the differential matrix: a seeded
// workload run under one scheduling policy and one fault plan.
type OracleConfig struct {
	Seed       int64
	Policy     core.Kind
	PolicyImpl core.Policy // overrides Policy when non-nil
	Plan       *Plan       // nil = fault-free
	// Reliability, when non-nil, arms the self-healing rail layer with this
	// config for every plan; when nil, a plan with rail events arms it with
	// the default config and other plans run without it.
	Reliability *adi.ReliabilityConfig
	// RegCache, when non-nil, arms the pin-down registration cache: the
	// payload digest must stay byte-identical to cache-off runs (charges
	// shift time, never bytes), and the timeline must still replay.
	RegCache *regcache.Config

	// EagerProto selects the eager channel (mpi.Config.EagerProto). The
	// RDMA-write ring moves every small message onto a different transport
	// path, yet the payload digest must stay byte-identical to the
	// send/recv baseline's: both channels share the per-connection
	// sequence space, so matching order is protocol-invariant.
	EagerProto adi.EagerProto

	Nodes        int // default 2
	ProcsPerNode int // default 2
	QPsPerPort   int // default 4 rails
	Deadline     sim.Time

	// Fabric shape beyond the single-switch default (mpi.Config fields of
	// the same names): a two-level fat tree (NodesPerSwitch, optionally
	// SpinesPerPod), a three-tier tree (Tiers = 3 with SpinesPerPod) or a
	// dragonfly (Dragonfly.Groups > 0), with Routing picking static vs
	// adaptive path selection. The workload's payload digest is topology-
	// and routing-invariant — routes move bytes in time, never in content
	// or matching order — so every cell must still match the flat baseline.
	NodesPerSwitch int
	TrunkRate      float64
	Tiers          int
	SpinesPerPod   int
	Dragonfly      topo.Dragonfly
	Routing        fabric.Routing

	// CollAlg selects the collective-algorithm family (mpi.Config.CollAlg).
	// The workload's collective phase only uses exact operators, so the
	// payload digest must be byte-identical to the striped baseline's even
	// under mpi.CollLane's ring-ordered reductions.
	CollAlg mpi.CollAlg

	// Integrity selects the end-to-end checksum mode (mpi.Config.Integrity).
	// Under IntegrityVerify every corrupted chunk is caught at the receiver
	// and NACK-retransmitted, so the payload digest must be byte-identical to
	// the fault-free baseline's even under corruption plans. IntegrityAudit
	// delivers the corruption (tallied) and IntegrityOff is the historical
	// zero value.
	Integrity adi.IntegrityMode
}

func (c OracleConfig) withDefaults() OracleConfig {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 2
	}
	if c.QPsPerPort == 0 {
		c.QPsPerPort = 4
	}
	if c.Deadline == 0 {
		c.Deadline = sim.Second
	}
	return c
}

// RunResult is one cell's outcome.
type RunResult struct {
	Policy string
	Plan   string

	// Digest summarises everything MPI semantics make deterministic:
	// payload bytes, per-stream completion order, collective results,
	// one-sided window contents. It must be byte-identical across all
	// policies and all fault plans.
	Digest uint64
	// TraceDigest folds the full protocol timeline (event times, kinds,
	// rails) with the final clock. It is policy- and plan-specific but must
	// replay identically for the same (seed, policy, plan).
	TraceDigest uint64

	// Violations lists every broken invariant a rank observed.
	Violations []string

	Elapsed          sim.Time
	RailRetransmits  int64 // WRs rerouted after rail deaths
	ChunkRetransmits int64 // chunks lost on the wire and resent

	// Integrity-layer activity summed over ranks (all zero when
	// OracleConfig.Integrity is IntegrityOff and the plan injects no
	// corruption). NACKs count receiver-detected checksum failures that
	// forced a retransmit; corrupt deliveries count payloads that landed
	// tainted with verification disarmed; torn repolls count eager-ring
	// slots whose doorbell beat their payload.
	IntegrityNacks    int64
	CorruptDeliveries int64
	TornRepolls       int64

	// Rail-health transitions of the reliability layer, summed over ranks
	// (all zero when the layer is off: no Reliability and no rail events).
	RailSuspects       int64
	RailQuarantines    int64
	RailProbes         int64
	RailReintegrations int64

	// Pin-down registration cache activity summed over ranks (peak is the
	// worst rank); all zero when OracleConfig.RegCache is nil.
	RegHits, RegMisses, RegEvictions int64
	RegPinnedPeak                    int64
}

// ---- seeded workload script ----

// script is the seed-derived workload, fixed before the run starts so every
// rank executes against the same read-only description.
type script struct {
	size     int
	msgs     [][][]int // [src][dst] -> message sizes, sent in order
	async    [][]bool  // [src][dst] -> sender uses an isend window
	wildN    int       // wildcard message size
	vecLen   int       // allreduce vector length
	bcastN   int       // broadcast bytes
	a2aBlock int       // alltoall per-pair block bytes
	putN     int       // one-sided put bytes (>= rendezvous threshold)
	stride   int       // per-source window region stride
	winN     int       // window bytes
}

func buildScript(seed int64, size int) *script {
	rng := rand.New(rand.NewSource(seed))
	palette := []int{1 << 10, 3 << 10, 9 << 10, 24 << 10, 48 << 10, 96 << 10, 160 << 10}
	sc := &script{
		size:     size,
		wildN:    2 << 10,
		vecLen:   96,
		bcastN:   32 << 10,
		a2aBlock: 8 << 10,
		putN:     20 << 10,
		stride:   24 << 10,
	}
	sc.winN = size*sc.stride + (32 << 10)
	sc.msgs = make([][][]int, size)
	sc.async = make([][]bool, size)
	for s := 0; s < size; s++ {
		sc.msgs[s] = make([][]int, size)
		sc.async[s] = make([]bool, size)
		for d := 0; d < size; d++ {
			if d == s {
				continue
			}
			k := 2 + rng.Intn(2)
			for i := 0; i < k; i++ {
				sc.msgs[s][d] = append(sc.msgs[s][d], palette[rng.Intn(len(palette))]+rng.Intn(512))
			}
			sc.async[s][d] = rng.Intn(2) == 0
		}
	}
	return sc
}

// Payload patterns. Each embeds enough identity (sender, receiver, sequence
// number) that a stripe landing in the wrong place, a dropped tail, or an
// overtaken message shows up as a byte mismatch.
func patA(src, dst, seq, i int) byte { return byte(137*src + 29*dst + 17*seq + i) }
func patB(src, dst, i int) byte      { return byte(73*src + 11*dst + 3 + i) }
func patC(i int) byte                { return byte(5*i + 1) }
func patA2A(src, dst, i int) byte    { return byte(31*src + 59*dst + i) }
func patW(rank, i int) byte          { return byte(97*rank + 7 + i) }
func patP(src, i int) byte           { return byte(61*src + 13 + i) }

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ---- the conformance run ----

// RunConformance executes the seeded workload under the configured policy
// and fault plan. Protocol errors surface as Violations; a hang surfaces as
// the watchdog error from the virtual-time deadline.
func RunConformance(cfg OracleConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	size := cfg.Nodes * cfg.ProcsPerNode
	sc := buildScript(cfg.Seed, size)

	rec := trace.NewRecorder(1 << 20)
	recs := make([][]uint64, size)
	viols := make([][]string, size)

	mcfg := mpi.Config{
		Nodes:          cfg.Nodes,
		ProcsPerNode:   cfg.ProcsPerNode,
		QPsPerPort:     cfg.QPsPerPort,
		Policy:         cfg.Policy,
		PolicyImpl:     cfg.PolicyImpl,
		EagerProto:     cfg.EagerProto,
		Trace:          rec,
		Deadline:       cfg.Deadline,
		CollAlg:        cfg.CollAlg,
		Integrity:      cfg.Integrity,
		NodesPerSwitch: cfg.NodesPerSwitch,
		TrunkRate:      cfg.TrunkRate,
		Tiers:          cfg.Tiers,
		SpinesPerPod:   cfg.SpinesPerPod,
		Dragonfly:      cfg.Dragonfly,
		Routing:        cfg.Routing,
	}
	if cfg.Plan != nil {
		mcfg.Chaos = cfg.Plan
	}
	if cfg.Reliability != nil {
		mcfg.Reliability = cfg.Reliability
	}
	mcfg.RegCache = cfg.RegCache
	mcfg.BufAudit = true

	rep, err := mpi.Run(mcfg, func(c *mpi.Comm) {
		r := c.Rank()
		push := func(vs ...uint64) { recs[r] = append(recs[r], vs...) }
		// Each rank writes only its own stream slots; flattening in rank
		// order below keeps the report deterministic.
		violf := func(format string, args ...any) {
			viols[r] = append(viols[r], fmt.Sprintf("rank %d: %s", r, fmt.Sprintf(format, args...)))
		}
		phaseStreams(c, sc, push, violf)
		c.Barrier()
		phaseWildcards(c, sc, push, violf)
		c.Barrier()
		phaseCollectives(c, sc, push, violf)
		c.Barrier()
		phaseOneSided(c, sc, push, violf)
	})
	if err != nil {
		return nil, err
	}

	var violations []string
	for _, vs := range viols {
		violations = append(violations, vs...)
	}

	// Payload-ownership invariant: with every request complete and every
	// envelope consumed, no refcounted payload block may still be held —
	// not even by a retransmission path that re-posted a stripe after a
	// rail death. A nonzero count means some path leaked (or double-held)
	// a reference.
	if live := rep.World.BufLive(); live != 0 {
		msg := fmt.Sprintf("payload leak: %d buffer blocks still referenced after quiesce", live)
		if report := rep.World.BufLiveReport(); report != "" {
			msg += " [" + report + "]"
		}
		violations = append(violations, msg)
	}

	res := &RunResult{
		Plan:    "no-faults",
		Elapsed: rep.Elapsed,
	}
	if cfg.Plan != nil {
		res.Plan = cfg.Plan.Name
	}
	if cfg.PolicyImpl != nil {
		res.Policy = cfg.PolicyImpl.Name()
	} else {
		res.Policy = cfg.Policy.String()
	}
	res.Violations = violations

	// User-visible digest: per-rank record streams in rank order.
	h := fnv.New64a()
	var le [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(le[:], v)
		h.Write(le[:])
	}
	for r, vals := range recs {
		put(0xABCD0000 + uint64(r))
		for _, v := range vals {
			put(v)
		}
	}
	res.Digest = h.Sum64()

	// Trace digest: the full protocol timeline plus the final clock.
	th := fnv.New64a()
	putT := func(v uint64) {
		binary.LittleEndian.PutUint64(le[:], v)
		th.Write(le[:])
	}
	for _, e := range rec.Events() {
		putT(uint64(e.T))
		putT(uint64(e.Kind)<<32 | uint64(uint32(e.Rank)))
		putT(uint64(uint32(e.Peer))<<32 | uint64(uint32(e.Rail)))
		putT(uint64(e.Bytes))
	}
	putT(uint64(rep.Elapsed))
	res.TraceDigest = th.Sum64()

	for _, st := range rep.RankStats {
		res.IntegrityNacks += st.IntegrityNacks
		res.CorruptDeliveries += st.CorruptDeliveries
		res.TornRepolls += st.TornRepolls
		res.RailRetransmits += st.RailRetransmits
		res.RailSuspects += st.RailSuspects
		res.RailQuarantines += st.RailQuarantines
		res.RailProbes += st.RailProbes
		res.RailReintegrations += st.RailReintegrations
		res.RegHits += st.RegHits
		res.RegMisses += st.RegMisses
		res.RegEvictions += st.RegEvictions
		res.RegPinnedPeak = max(res.RegPinnedPeak, st.RegPinnedPeak)
	}
	for _, node := range rep.World.Cluster.Nodes {
		for _, port := range node.Ports() {
			res.ChunkRetransmits += port.Retransmits
		}
	}
	return res, nil
}

// phaseStreams drives same-tag per-pair message streams mixing eager and
// rendezvous sizes. Receives are pre-posted in order, so MPI's
// non-overtaking rule pins which payload each must deliver: slot k of the
// (s -> r) stream must carry sequence number k.
func phaseStreams(c *mpi.Comm, sc *script, push func(...uint64), violf func(string, ...any)) {
	const tag = 10
	r, size := c.Rank(), c.Size()

	type stream struct {
		src  int
		bufs [][]byte
		reqs []*mpi.Request
	}
	var streams []stream
	for s := 0; s < size; s++ {
		if s == r || len(sc.msgs[s][r]) == 0 {
			continue
		}
		st := stream{src: s}
		for _, n := range sc.msgs[s][r] {
			buf := make([]byte, n)
			st.bufs = append(st.bufs, buf)
			st.reqs = append(st.reqs, c.Irecv(s, tag, buf))
		}
		streams = append(streams, st)
	}

	for d := 0; d < size; d++ {
		if d == r {
			continue
		}
		sizes := sc.msgs[r][d]
		if sc.async[r][d] {
			var reqs []*mpi.Request
			for seq, n := range sizes {
				data := make([]byte, n)
				for i := range data {
					data[i] = patA(r, d, seq, i)
				}
				reqs = append(reqs, c.Isend(d, tag, data))
			}
			c.Waitall(reqs)
			for _, req := range reqs {
				req.Release()
			}
		} else {
			for seq, n := range sizes {
				data := make([]byte, n)
				for i := range data {
					data[i] = patA(r, d, seq, i)
				}
				c.Send(d, tag, data)
			}
		}
	}

	for _, st := range streams {
		for seq, req := range st.reqs {
			stat := c.Wait(req)
			req.Release()
			want := sc.msgs[st.src][r][seq]
			if stat.Err != nil {
				violf("stream %d->%d seq %d: status error %v", st.src, r, seq, stat.Err)
			}
			if stat.Source != st.src || stat.Tag != tag || stat.Count != want {
				violf("stream %d->%d seq %d: status (src=%d tag=%d count=%d), want (src=%d tag=%d count=%d)",
					st.src, r, seq, stat.Source, stat.Tag, stat.Count, st.src, tag, want)
			}
			bad := -1
			for i, b := range st.bufs[seq] {
				if b != patA(st.src, r, seq, i) {
					bad = i
					break
				}
			}
			if bad >= 0 {
				violf("stream %d->%d seq %d: payload corrupt at byte %d (got %#x want %#x)",
					st.src, r, seq, bad, st.bufs[seq][bad], patA(st.src, r, seq, bad))
			}
			push(uint64(st.src), uint64(seq), uint64(stat.Count), hashBytes(st.bufs[seq]))
		}
	}
}

// phaseWildcards posts fully wild receives (AnySource, AnyTag) and has every
// peer send once. Completion order is policy-dependent, so outcomes are
// digested as a canonically sorted set; the invariant is that each peer is
// matched exactly once with an intact payload.
func phaseWildcards(c *mpi.Comm, sc *script, push func(...uint64), violf func(string, ...any)) {
	r, size := c.Rank(), c.Size()
	n := sc.wildN

	bufs := make([][]byte, size-1)
	reqs := make([]*mpi.Request, size-1)
	for i := range bufs {
		bufs[i] = make([]byte, n)
		reqs[i] = c.Irecv(mpi.AnySource, mpi.AnyTag, bufs[i])
	}

	data := make([]byte, n)
	for d := 0; d < size; d++ {
		if d == r {
			continue
		}
		for i := range data {
			data[i] = patB(r, d, i)
		}
		c.Send(d, 200+r, data)
	}

	type outcome struct {
		src, tag, count int
		hash            uint64
	}
	outs := make([]outcome, 0, size-1)
	for i, req := range reqs {
		stat := c.Wait(req)
		req.Release()
		if stat.Err != nil {
			violf("wildcard recv %d: status error %v", i, stat.Err)
		}
		if stat.Tag != 200+stat.Source || stat.Count != n {
			violf("wildcard recv %d: status (src=%d tag=%d count=%d), want tag=%d count=%d",
				i, stat.Source, stat.Tag, stat.Count, 200+stat.Source, n)
		}
		for bi, b := range bufs[i] {
			if b != patB(stat.Source, r, bi) {
				violf("wildcard recv from %d: payload corrupt at byte %d", stat.Source, bi)
				break
			}
		}
		outs = append(outs, outcome{stat.Source, stat.Tag, stat.Count, hashBytes(bufs[i])})
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].src < outs[j].src })
	seen := map[int]bool{}
	for _, o := range outs {
		if seen[o.src] {
			violf("wildcard: source %d matched twice", o.src)
		}
		seen[o.src] = true
		push(uint64(o.src), uint64(o.tag), uint64(o.count), o.hash)
	}
	for s := 0; s < size; s++ {
		if s != r && !seen[s] {
			violf("wildcard: source %d never matched", s)
		}
	}
}

// phaseCollectives verifies allreduce (sum and max), broadcast, and
// alltoall against host-side recomputation. Chaos plans aimed at collective
// phases (rail flaps mid-collective) land here.
func phaseCollectives(c *mpi.Comm, sc *script, push func(...uint64), violf func(string, ...any)) {
	r, size := c.Rank(), c.Size()

	// Allreduce sum.
	v := make([]int64, sc.vecLen)
	for i := range v {
		v[i] = int64((r + 1) * (i + 3))
	}
	c.AllreduceInt64(v, mpi.Sum)
	for i := range v {
		var want int64
		for q := 0; q < size; q++ {
			want += int64((q + 1) * (i + 3))
		}
		if v[i] != want {
			violf("allreduce sum elem %d: got %d want %d", i, v[i], want)
			break
		}
	}
	push(hashInt64s(v))

	// Allreduce max.
	m := make([]int64, sc.vecLen)
	for i := range m {
		m[i] = int64((r*7+i*13)%101 - 50)
	}
	c.AllreduceInt64(m, mpi.Max)
	for i := range m {
		want := int64(-1 << 62)
		for q := 0; q < size; q++ {
			if x := int64((q*7+i*13)%101 - 50); x > want {
				want = x
			}
		}
		if m[i] != want {
			violf("allreduce max elem %d: got %d want %d", i, m[i], want)
			break
		}
	}
	push(hashInt64s(m))

	// Broadcast from rank 1.
	bb := make([]byte, sc.bcastN)
	if r == 1 {
		for i := range bb {
			bb[i] = patC(i)
		}
	}
	c.BcastN(1, bb, sc.bcastN)
	for i, b := range bb {
		if b != patC(i) {
			violf("bcast: payload corrupt at byte %d", i)
			break
		}
	}
	push(hashBytes(bb))

	// Alltoall.
	blk := sc.a2aBlock
	sbuf := make([]byte, size*blk)
	rbuf := make([]byte, size*blk)
	for d := 0; d < size; d++ {
		for i := 0; i < blk; i++ {
			sbuf[d*blk+i] = patA2A(r, d, i)
		}
	}
	c.Alltoall(sbuf, blk, rbuf)
	for s := 0; s < size; s++ {
		for i := 0; i < blk; i++ {
			if rbuf[s*blk+i] != patA2A(s, r, i) {
				violf("alltoall: block from %d corrupt at byte %d", s, i)
				break
			}
		}
	}
	push(hashBytes(rbuf))

	c.Barrier()
}

// phaseOneSided exercises the RMA window: striped puts and gets across
// fence epochs, accumulates, fetch-and-add, and compare-and-swap. Applied
// atomics must apply exactly once even when their completions are lost to a
// dying rail — a double-applied fetch-add breaks the final counter here.
func phaseOneSided(c *mpi.Comm, sc *script, push func(...uint64), violf func(string, ...any)) {
	r, size := c.Rank(), c.Size()
	buf := make([]byte, sc.winN)
	lower := size * sc.stride
	for i := 0; i < lower; i++ {
		buf[i] = patW(r, i)
	}
	win := c.WinCreate(buf, sc.winN)
	win.Fence()

	// Epoch 1: each rank puts putN bytes into its own region of its right
	// neighbor's window. putN >= the rendezvous threshold, so the policies
	// stripe it.
	target := (r + 1) % size
	pdata := make([]byte, sc.putN)
	for i := range pdata {
		pdata[i] = patP(r, i)
	}
	win.Put(target, r*sc.stride, pdata)
	win.Fence()

	// My window now holds my left neighbor's put in its region; everything
	// else keeps my initial pattern.
	left := (r - 1 + size) % size
	for i := 0; i < lower; i++ {
		want := patW(r, i)
		if reg := i / sc.stride; reg == left && i-reg*sc.stride < sc.putN {
			want = patP(left, i-reg*sc.stride)
		}
		if buf[i] != want {
			violf("window after put epoch: byte %d got %#x want %#x", i, buf[i], want)
			break
		}
	}
	push(hashBytes(buf[:lower]))

	// Epoch 2: get the region a third rank's left neighbor put there and
	// verify the same bytes from the remote side (striped RDMA reads).
	gt := (r + 2) % size
	gsrc := (gt - 1 + size) % size
	gbuf := make([]byte, sc.putN)
	win.Get(gt, gsrc*sc.stride, gbuf)
	win.Fence()
	for i, b := range gbuf {
		if b != patP(gsrc, i) {
			violf("get from %d: byte %d got %#x want %#x", gt, i, b, patP(gsrc, i))
			break
		}
	}
	push(hashBytes(gbuf))

	// Epoch 3: concurrent accumulates and atomics on rank 0's window.
	elemBase := lower / 8
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = int64(r*100 + i)
	}
	win.AccumulateInt64(0, elemBase, vals, mpi.Sum)

	counterElem := elemBase + 64
	old1 := win.FetchAddInt64(0, counterElem, int64(r+1))
	old2 := win.FetchAddInt64(0, counterElem, int64(r+1))
	if old2 < old1+int64(r+1) {
		violf("fetch-add not monotone: old1=%d old2=%d delta=%d", old1, old2, r+1)
	}

	casElem := counterElem + 2 + r
	if old := win.CompareAndSwapInt64(0, casElem, 0, int64(r+1000)); old != 0 {
		violf("cas elem %d: old=%d want 0", casElem, old)
	}
	win.Fence()

	if r == 0 {
		for i := range vals {
			var want int64
			for q := 0; q < size; q++ {
				want += int64(q*100 + i)
			}
			if got := win.ReadInt64(elemBase + i); got != want {
				violf("accumulate elem %d: got %d want %d", i, got, want)
			}
			push(uint64(win.ReadInt64(elemBase + i)))
		}
		var wantCtr int64
		for q := 0; q < size; q++ {
			wantCtr += 2 * int64(q+1)
		}
		if got := win.ReadInt64(counterElem); got != wantCtr {
			violf("fetch-add counter: got %d want %d (lost or double-applied atomic)", got, wantCtr)
		}
		push(uint64(win.ReadInt64(counterElem)))
		for q := 0; q < size; q++ {
			if got := win.ReadInt64(counterElem + 2 + q); got != int64(q+1000) {
				violf("cas slot for rank %d: got %d want %d", q, got, q+1000)
			}
			push(uint64(win.ReadInt64(counterElem + 2 + q)))
		}
	}
	win.Free()
}

func hashInt64s(v []int64) uint64 {
	h := fnv.New64a()
	var le [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(le[:], uint64(x))
		h.Write(le[:])
	}
	return h.Sum64()
}

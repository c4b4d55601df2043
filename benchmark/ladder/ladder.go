// Package ladder times one layer's public functions in isolation, one row
// per layer operation, so a win or a regression on a workload can be
// attributed to the layer that moved. Each row scales its operation count
// until it has run for the requested time and reports host ns (or the row's
// own unit) per operation and Go allocations per operation.
package ladder

import (
	"fmt"
	"runtime"
	"time"

	"ib12x/internal/adi"
	"ib12x/internal/buf"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/hca"
	"ib12x/internal/ib"
	"ib12x/internal/model"
	"ib12x/internal/regcache"
	"ib12x/internal/shmem"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// Row is one measured ladder rung.
type Row struct {
	Name        string
	Unit        string
	Value       float64
	AllocsPerOp float64
	Ops         int
}

// op runs n operations and returns the host time they took (set-up
// excluded) together with any extra rows derived from the same run.
type op func(n int) (time.Duration, []Row)

// rung is one row's definition: per is the unit of Value (ns, us or ms per
// operation). A rung with bytes set reports throughput instead: bytes moved
// per operation over the time, in GB/s.
type rung struct {
	name  string
	per   time.Duration
	run   op
	bytes int
}

func unitOf(per time.Duration) string {
	switch per {
	case time.Microsecond:
		return "us"
	case time.Millisecond:
		return "ms"
	}
	return "ns"
}

// Run measures every rung for at least minTime each.
func Run(minTime time.Duration) []Row {
	var rows []Row
	for _, r := range rungs() {
		rows = append(rows, measure(r, minTime)...)
	}
	return rows
}

// measure grows n until the row has run for minTime, like testing.B does.
func measure(r rung, minTime time.Duration) []Row {
	n := 1
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, extra := r.run(n)
		runtime.ReadMemStats(&m1)
		if d >= minTime || n >= 1<<26 {
			row := Row{
				Name: r.name, Unit: unitOf(r.per), Ops: n,
				Value:       float64(d) / float64(max(r.per, 1)) / float64(n),
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			}
			if r.bytes > 0 {
				row.Unit, row.Value = "GB/s", float64(r.bytes)*float64(n)/float64(d.Nanoseconds())
			}
			return append([]Row{row}, extra...)
		}
		grow := 100.0
		if d > 0 {
			grow = min(1.2*float64(minTime)/float64(d), 100)
		}
		n = max(n+1, int(float64(n)*grow))
	}
}

// timed runs f and returns its host duration.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func mustRun(e *sim.Engine) {
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
}

func rungs() []rung {
	m := model.Default()
	return []rung{
		// Lever: fewer events per byte pays only what an event costs; the
		// deep rows are the queue under 256+ rank worlds (sharding verdict).
		{name: "sim.post_fire_ns.d10", run: postFire(10)},
		{name: "sim.post_fire_ns.d1k", run: postFire(1000)},
		{name: "sim.post_fire_ns.d100k", run: postFire(100000)},
		// Lever: running rank continuations on the engine goroutine removes
		// this park/resume round trip from every satisfied Wait.
		{name: "sim.park_resume_ns", run: parkResume},
		// Lever: analytic fast-forward keeps one plan per stripe set, so the
		// planner's cost per rendezvous must stay negligible.
		{name: "core.plan_bulk_ns", run: planBulk(m)},
		// Lever: the eager capture copy; idle on synthetic-payload workloads.
		{name: "buf.capture_release_ns", run: captureRelease},
		// Lever: the integrity loop's checksum pass (chaos_routed).
		{name: "buf.sum_gbps", run: sumRate, bytes: sumBytes},
		// Lever: one GX+ booking per chunk, removed by closed-form booking.
		{name: "gx.dma_ns", run: gxDMA(m)},
		// Lever: the per-chunk walk analytic fast-forward collapses; the
		// events-per-chunk count is what it must lower.
		{name: "hca.chunk_ns", run: hcaChunk(m)},
		// Lever: verbs posting and completion under the adi paths.
		{name: "ib.post_send_ns", run: ibPostSend(m)},
		// Lever: one fabric — the routed graph must cost no more per booking
		// than the hard-wired switch it replaces.
		{name: "fabric.bookpath_static_ns", run: bookPath(m, fabric.RouteStatic)},
		{name: "fabric.bookpath_adaptive_ns", run: bookPath(m, fabric.RouteAdaptive)},
		// Lever: intra-node traffic of nas_app and coll_mix.
		{name: "shmem.send_ns", run: shmemSend(m)},
		// Lever: the pin-down cache's hit and miss paths (chaos_routed).
		{name: "regcache.register_warm_ns", run: regWarm},
		{name: "regcache.register_cold_ns", run: regCold},
		// Lever: observability must stay cheap enough to leave on.
		{name: "trace.record_ns", run: traceRecord},
		// Lever: the adi eager and rendezvous paths end to end, per message.
		{name: "adi.eager_ns", run: adiPingPong(m, 1<<10)},
		{name: "adi.rndv_1m_us", per: time.Microsecond, run: adiPingPong(m, 1<<20)},
		// Lever: tag matching against deep posted-receive lists (coll_mix).
		{name: "adi.match_ns.d1", run: adiMatch(m, 1, false)},
		{name: "adi.match_ns.d1k", run: adiMatch(m, 1000, false)},
		{name: "adi.match_wild_ns.d1k", run: adiMatch(m, 1000, true)},
		// Lever: on-demand connections — build time and memory must become
		// proportional to communicating pairs (setup_s on scale_ring).
		{name: "topo.build_ms.n256", per: time.Millisecond, run: func(n int) (time.Duration, []Row) {
			return timed(func() {
				for i := 0; i < n; i++ {
					topo.Build(worldSpec(256), m)
				}
			}), nil
		}},
		{name: "adi.build_ms.n16", per: time.Millisecond, run: buildWorld(m, 16)},
		{name: "adi.build_ms.n64", per: time.Millisecond, run: buildWorld(m, 64)},
		{name: "adi.build_ms.n256", per: time.Millisecond, run: buildWorld(m, 256)},
	}
}

// postFire keeps depth events pending and measures one post plus one fire
// of a chained event above them.
func postFire(depth int) op {
	return func(n int) (time.Duration, []Row) {
		e := sim.NewEngine()
		far := sim.Time(n) + sim.Second
		for i := 0; i < depth; i++ {
			e.Post(far+sim.Time(i), func() {})
		}
		left := n
		var next func()
		next = func() {
			if left--; left > 0 {
				e.PostAfter(1, next)
			}
		}
		e.PostAfter(1, next)
		return timed(func() {
			if err := e.RunUntil(far - 1); err != nil {
				panic(err)
			}
		}), nil
	}
}

// parkResume is one proc sleeping n times: each sleep parks the proc's
// goroutine, fires its timer and hands the baton back.
func parkResume(n int) (time.Duration, []Row) {
	e := sim.NewEngine()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return timed(func() { mustRun(e) }), nil
}

func planBulk(m *model.Params) op {
	return func(n int) (time.Duration, []Row) {
		pol := core.New(core.EPC, m.MinStripe)
		st := &core.ConnState{}
		sizes := [4]int{64 << 10, 256 << 10, 512 << 10, 1 << 20}
		return timed(func() {
			for i := 0; i < n; i++ {
				if len(pol.PlanBulk(core.Blocking, sizes[i&3], 4, st)) == 0 {
					panic("ladder: empty stripe plan")
				}
			}
		}), nil
	}
}

func captureRelease(n int) (time.Duration, []Row) {
	var pool buf.Pool
	src := make([]byte, 1<<10)
	return timed(func() {
		for i := 0; i < n; i++ {
			v := pool.Get(len(src))
			copy(v.Bytes(), src)
			v.Release()
		}
	}), nil
}

const sumBytes = 256 << 10

// sumRate is one checksum pass over sumBytes per operation.
func sumRate(n int) (time.Duration, []Row) {
	b := make([]byte, sumBytes)
	var sink uint32
	d := timed(func() {
		for i := 0; i < n; i++ {
			sink += buf.Sum(b)
		}
	})
	_ = sink
	return d, nil
}

func gxDMA(m *model.Params) op {
	return func(n int) (time.Duration, []Row) {
		bus := gx.New(m.GXRate)
		var now sim.Time
		return timed(func() {
			for i := 0; i < n; i++ {
				now = bus.DMA(now, int64(m.LaneChunk))
			}
		}), nil
	}
}

// hcaPair is two single-port HCAs on separate nodes under one switch.
func hcaPair(m *model.Params) (src, dst *hca.Port) {
	net := fabric.NewSingleSwitch(m.WireLatency)
	a := hca.New("a", 1, gx.New(m.GXRate), m, net)
	b := hca.New("b", 1, gx.New(m.GXRate), m, net)
	a.Ports[0].Node, b.Ports[0].Node = 0, 1
	return a.Ports[0], b.Ports[0]
}

// hcaChunk sends one LaneChunk-sized descriptor at a time through every
// pipeline stage, the next one posted from the previous one's ack.
func hcaChunk(m *model.Params) op {
	return func(n int) (time.Duration, []Row) {
		e := sim.NewEngine()
		src, dst := hcaPair(m)
		f := src.NewFlow(e, dst)
		left := n
		var acked func(hca.Timing)
		acked = func(hca.Timing) {
			if left--; left > 0 {
				f.Send(m.LaneChunk, nil, acked)
			}
		}
		e.Post(0, func() { f.Send(m.LaneChunk, nil, acked) })
		d := timed(func() { mustRun(e) })
		return d, []Row{{Name: "hca.events_per_chunk", Unit: "count", Ops: n, Value: float64(e.EventsFired()) / float64(n)}}
	}
}

// ibPostSend posts 64-byte sends on a connected QP pair in batches below the
// send-queue depth, runs them to completion and reaps both CQs.
func ibPostSend(m *model.Params) op {
	return func(n int) (time.Duration, []Row) {
		e := sim.NewEngine()
		realm := ib.NewRealm(e, m)
		pa, pb := hcaPair(m)
		cqa, cqb := realm.NewCQ(), realm.NewCQ()
		qa := realm.NewQP(ib.QPConfig{Port: pa, CQ: cqa})
		qb := realm.NewQP(ib.QPConfig{Port: pb, CQ: cqb})
		if err := ib.Connect(qa, qb); err != nil {
			panic(err)
		}
		const batch = 64
		return timed(func() {
			for done := 0; done < n; done += batch {
				k := min(batch, n-done)
				for i := 0; i < k; i++ {
					if err := qb.PostRecv(ib.RecvWR{N: 64}); err != nil {
						panic(err)
					}
					if err := qa.PostSend(ib.SendWR{Op: ib.OpSend, N: 64, Signaled: true}); err != nil {
						panic(err)
					}
				}
				mustRun(e)
				for _, cq := range []*ib.CQ{cqa, cqb} {
					for i := 0; i < k; i++ {
						if _, ok := cq.Poll(); !ok {
							panic("ladder: missing completion")
						}
					}
				}
			}
		}), nil
	}
}

// bookPath books cross-pod chunk transfers on chaos_routed's tree.
func bookPath(m *model.Params, mode fabric.Routing) op {
	return func(n int) (time.Duration, []Row) {
		const nodes = 32
		net := fabric.NewThreeTier(m.WireLatency, nodes, 4, 2, m.LinkRawRate, mode, 1)
		wire := int64(m.LaneChunk)
		xfer := sim.TransferTime(wire, m.LinkRawRate)
		var now sim.Time
		return timed(func() {
			for i := 0; i < n; i++ {
				src := i % nodes
				net.BookPath(src, (src+nodes/2)%nodes, uint64(i), now, now+xfer, wire, m.WireLatency)
				if src == nodes-1 {
					now += xfer
				}
			}
		}), nil
	}
}

func shmemSend(m *model.Params) op {
	return func(n int) (time.Duration, []Row) {
		e := sim.NewEngine()
		var pool buf.Pool
		link := shmem.New(e, m)
		link.SetDeliver(func(msg shmem.Msg) { msg.Pay.Release() })
		const batch = 256
		return timed(func() {
			for done := 0; done < n; done += batch {
				for i, k := 0, min(batch, n-done); i < k; i++ {
					link.Send(pool.Get(1<<10), 1<<10, nil)
				}
				mustRun(e)
			}
		}), nil
	}
}

func regWarm(n int) (time.Duration, []Row) {
	c := regcache.New(regcache.Config{})
	b := make([]byte, 1<<20)
	c.Register(b, len(b))
	return timed(func() {
		for i := 0; i < n; i++ {
			if !c.Register(b, len(b)).Hit {
				panic("ladder: warm registration missed")
			}
		}
	}), nil
}

func regCold(n int) (time.Duration, []Row) {
	c := regcache.New(regcache.Config{})
	b := make([]byte, 1<<20)
	return timed(func() {
		for i := 0; i < n; i++ {
			c.Flush()
			if c.Register(b, len(b)).Hit {
				panic("ladder: cold registration hit")
			}
		}
	}), nil
}

// traceRecord fills recorders of the default capacity, so the slice growth
// a real traced run pays is included.
func traceRecord(n int) (time.Duration, []Row) {
	const limit = 64 << 10
	return timed(func() {
		var rec *trace.Recorder
		for i := 0; i < n; i++ {
			if i%limit == 0 {
				rec = trace.NewRecorder(limit)
			}
			rec.Record(sim.Time(i), trace.KindEager, 0, 1, 1024, 0)
		}
	}), nil
}

func worldSpec(nodes int) topo.Spec {
	s := topo.Spec{Nodes: nodes, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 4}
	if nodes >= 256 {
		s.NodesPerSwitch = 16 // scale_ring's fat tree
	}
	return s
}

// buildWorld times adi.NewWorld; the 256-node row also reports the live
// heap one built world holds per connected rank pair.
func buildWorld(m *model.Params, nodes int) op {
	return func(n int) (time.Duration, []Row) {
		var w *adi.World
		d := timed(func() {
			for i := 0; i < n; i++ {
				w = adi.NewWorld(sim.NewEngine(), m, worldSpec(nodes), adi.Options{Policy: core.EPC})
			}
		})
		if nodes != 256 {
			return d, nil
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(w)
		w = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		kb := float64(with.HeapAlloc-without.HeapAlloc) / 1024 / float64(nodes*(nodes-1)/2)
		return d, []Row{{Name: "adi.build_kb_per_conn", Unit: "KB", Ops: 1, Value: kb}}
	}
}

// twoRankWorld spawns body on a 2-node EPC world and runs it to completion.
func twoRankWorld(m *model.Params, body func(ep *adi.Endpoint)) time.Duration {
	e := sim.NewEngine()
	w := adi.NewWorld(e, m, worldSpec(2), adi.Options{Policy: core.EPC})
	w.Spawn("ladder", body)
	return timed(func() { mustRun(e) })
}

func sendWait(ep *adi.Endpoint, peer, tag int, data []byte) {
	r := ep.PostSend(peer, tag, adi.CtxPt2Pt, core.Blocking, data, len(data))
	ep.Wait(r)
	r.Release()
}

func recvWait(ep *adi.Endpoint, src, tag int, b []byte) {
	r := ep.PostRecv(src, tag, adi.CtxPt2Pt, b, len(b))
	ep.Wait(r)
	r.Release()
}

// adiPingPong bounces one message of the given size through
// Endpoint.PostSend/PostRecv/Wait; an operation is one message one way.
func adiPingPong(m *model.Params, size int) op {
	return func(n int) (time.Duration, []Row) {
		trips := (n + 1) / 2
		d := twoRankWorld(m, func(ep *adi.Endpoint) {
			b := make([]byte, size)
			peer := 1 - ep.Rank
			for i := 0; i < trips; i++ {
				if ep.Rank == 0 {
					sendWait(ep, peer, 0, b)
					recvWait(ep, peer, 0, b)
				} else {
					recvWait(ep, peer, 0, b)
					sendWait(ep, peer, 0, b)
				}
			}
		})
		return d * time.Duration(n) / time.Duration(2*trips), nil
	}
}

// adiMatch delivers a 64-byte message that matches the last of depth
// pre-posted receives (specific-source, or all wildcard-source), re-posts
// that receive and returns a zero-byte ack so the next message again finds
// the full list posted. An operation is one matched message plus its ack;
// subtract adi.eager_ns twice for the matching cost alone.
func adiMatch(m *model.Params, depth int, wild bool) op {
	return func(n int) (time.Duration, []Row) {
		last, ackTag := depth-1, depth
		return twoRankWorld(m, func(ep *adi.Endpoint) {
			b := make([]byte, 64)
			if ep.Rank == 0 {
				for i := 0; i < n; i++ {
					sendWait(ep, 1, last, b)
					recvWait(ep, 1, ackTag, nil)
				}
				return
			}
			src := 0
			if wild {
				src = adi.AnySource
			}
			for tag := 0; tag < last; tag++ {
				ep.PostRecv(src, tag, adi.CtxPt2Pt, nil, 64)
			}
			for i := 0; i < n; i++ {
				recvWait(ep, src, last, b)
				sendWait(ep, 0, ackTag, nil)
			}
			// The run ends with the unmatched receives still posted; the
			// engine finishes once both procs return.
		}), nil
	}
}

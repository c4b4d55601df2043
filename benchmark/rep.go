package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// build derives one run from the seed: the job's configuration and the
	// body every rank executes.
	build func(in *inputs) (mpi.Config, func(*rank))
}

func fixed(cfg func() mpi.Config, body func(*rank)) func(*inputs) (mpi.Config, func(*rank)) {
	return func(*inputs) (mpi.Config, func(*rank)) { return cfg(), body }
}

var workloads = []workload{
	{"p2p_bw", "windowed streams at 16K-1M: per-chunk hca/ib/fabric/gx events dominate, so fewer events per byte must show here",
		fixed(twoRanks, p2pBW)},
	{"p2p_lat", "blocking ping-pong at 1B-64K: a park/resume round trip and an eager capture per message, the chunk pipeline barely runs",
		fixed(twoRanks, p2pLat)},
	{"coll_mix", "16 ranks, five collectives per iteration: mpi algorithms, 15-peer tag matching with unexpected queues, and shmem",
		fixed(collWorld, collMix)},
	{"nas_app", "LU, FT and CG on 2x2 ranks: host time is nas compute and shmem, so transport changes should not move it (dilution control)",
		nasApp},
	{"scale_ring", "256-node fat tree, each rank uses 2 of 255 connections: world build, allocation and RSS dominate",
		fixed(ringWorld, scaleRing)},
	{"chaos_routed", "32-node adaptive three-tier tree under a seeded fault plan: route selection, checksums, NACK and rail retransmit, quarantine",
		func(in *inputs) (mpi.Config, func(*rank)) { return chaosConfig(in), chaosRouted }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repResult is what one child process reports for one repetition.
type repResult struct {
	SetupS      float64   // this run: mpi.Run called -> rank 0 enters the body
	WallS       float64   // this run: mpi.Run called -> mpi.Run returned
	BodyS       float64   // this run: mpi.Run called -> last rank leaves the body
	VerifyS     float64   // post-run checks
	SetupProbes []float64 // world builds repeated after the run, same measure as SetupS

	Msgs       int64 // EagerSent + RendezvousSent + ShmemSent over all ranks
	Mallocs    uint64
	AllocBytes uint64
	PeakRSSKB  int64
	VirtPs     int64 // Report.Elapsed

	Ops, OpsFailed int64
	Failure        string

	// Exact per seed: layer counters, virtual-time utilizations, and the
	// workload's own virtual results.
	Counters map[string]float64
	// Traced repetition only: span- and recorder-derived numbers.
	Trace map[string]float64
}

// repOpts selects what one repetition does beyond the timed run.
type repOpts struct {
	traced    bool
	shards    int
	probes    bool   // repeat the world build after the run for setup_s
	traceFile string // where a traced repetition writes its spans
}

// runRep executes one repetition of w in this process.
func runRep(w *workload, in *inputs, opt repOpts) (*repResult, error) {
	runtime.GOMAXPROCS(max(opt.shards, 1))
	warmUp()

	cfg, body := w.build(in)
	cfg.Shards = opt.shards
	var rec *trace.Recorder
	if opt.traced {
		rec = trace.NewRecorder(1 << 20)
		cfg.Trace = rec
	}
	ranks := make([]*rank, cfg.Size())
	for i := range ranks {
		ranks[i] = &rank{in: in, tracing: opt.traced, extra: map[string]float64{}}
	}
	bodyEnd := make([]time.Time, len(ranks))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Rank 0 collects the build's garbage as it enters the body, and that
	// pause is taken out of every time below. A cycle over a large built
	// world costs as much as a short run phase; left to the pacer it lands
	// in the run phase of some repetitions and not of others.
	var tBuilt, tBody time.Time
	t0 := time.Now()
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			tBuilt = time.Now()
			runtime.GC()
			tBody = time.Now()
		}
		x := ranks[c.Rank()]
		x.Comm = c
		c.Compute(in.startSkew(c.Rank()))
		body(x)
		bodyEnd[c.Rank()] = time.Now()
	})
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	t0 = t0.Add(tBody.Sub(tBuilt))

	res := &repResult{
		SetupS:     tBody.Sub(t0).Seconds(),
		WallS:      t1.Sub(t0).Seconds(),
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		PeakRSSKB:  peakRSSKB(),
		Counters:   map[string]float64{},
	}
	for _, x := range ranks {
		res.Ops += x.ops
		res.OpsFailed += x.failed
		if res.Failure == "" {
			res.Failure = x.firstFail
		}
	}
	if err != nil {
		// A watchdog or deadlock error fails every op of the run.
		res.Ops = max(res.Ops, 1)
		res.OpsFailed, res.Failure = res.Ops, err.Error()
		return res, nil
	}
	for _, t := range bodyEnd {
		res.BodyS = max(res.BodyS, t.Sub(t0).Seconds())
	}
	res.VirtPs = int64(rep.Elapsed)
	harvest(rep, res)
	for k, v := range ranks[0].extra {
		res.Counters[k] = v
	}
	if live := rep.World.BufLive(); live != 0 {
		res.Ops++
		res.OpsFailed++
		if res.Failure == "" {
			res.Failure = fmt.Sprintf("%d payload blocks still referenced after the run", live)
		}
	}
	if w.name != "chaos_routed" {
		// The fault paths must stay cold where no fault is injected.
		res.Ops++
		for _, k := range []string{"hca.chunk_retransmits", "adi.rail_retransmits", "adi.rail_quarantines", "adi.integrity_nacks"} {
			if v := res.Counters[k]; v != 0 {
				res.OpsFailed++
				if res.Failure == "" {
					res.Failure = fmt.Sprintf("%s = %v on a fault-free workload", k, v)
				}
				break
			}
		}
	}
	res.VerifyS = time.Since(t1).Seconds()

	if opt.traced {
		res.Trace = traceMetrics(ranks, rec, len(ranks))
		if opt.traceFile != "" {
			if err := writeTrace(opt.traceFile, w.name, res, ranks); err != nil {
				return nil, err
			}
		}
	}
	if opt.probes {
		res.SetupProbes = probeSetup(w, in)
	}
	return res, nil
}

// warmUp runs a tiny 2-rank world so first-use costs (page faults on the
// runtime's own structures, lazy package state) are paid before timing.
func warmUp() {
	_, _ = mpi.Run(mpi.Config{QPsPerPort: 4}, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		c.SendrecvN(peer, 0, nil, 64, peer, 0, nil, 64)
		c.SendrecvN(peer, 0, nil, 64<<10, peer, 0, nil, 64<<10)
	})
}

// probeSetup repeats the world build with an empty body and returns the
// host seconds from calling mpi.Run to rank 0 entering the body, once per
// build: builds repeat until 0.25 s are spent or 64 are done (-quick: one
// build). The timed run's world is collected first, so a large build does
// not start against a heap goal the previous one set.
func probeSetup(w *workload, in *inputs) []float64 {
	var out []float64
	var spent time.Duration
	budget := 250 * time.Millisecond
	if in.quick {
		budget = 0
	}
	runtime.GC()
	for len(out) < 1 || (spent < budget && len(out) < 64) {
		cfg, _ := w.build(in)
		var tBody time.Time
		t0 := time.Now()
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				tBody = time.Now()
			}
		})
		if err != nil {
			break
		}
		out = append(out, tBody.Sub(t0).Seconds())
		spent += time.Since(t0)
	}
	return out
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// harvest reads the per-layer counters a finished run exposes through
// public getters. Every value is exact for a given seed.
func harvest(rep *mpi.Report, res *repResult) {
	c := res.Counters
	w, end := rep.World, rep.Elapsed

	events := w.Eng.EventsFired()
	if g := w.Group(); g != nil {
		events = g.EventsFired()
	}
	c["sim.events"] = float64(events)

	var ports float64
	for _, node := range w.Cluster.Nodes {
		c["gx.bus_util"] += node.Bus.Utilization(end)
		c["gx.bytes"] += float64(node.Bus.Bytes())
		for _, p := range node.Ports() {
			ports++
			c["hca.wqes"] += float64(p.WQEs)
			c["hca.acks"] += float64(p.Acks)
			c["hca.chunk_retransmits"] += float64(p.Retransmits)
			c["hca.rnr_waits"] += float64(p.RnrWaits)
			c["hca.send_engine_util"] += p.EngineUtilization(end)
			var ru float64
			for i := range p.RecvEngines {
				ru += p.RecvEngines[i].Utilization(end)
			}
			c["hca.recv_engine_util"] += ru / float64(len(p.RecvEngines))
			c["hca.sched_util"] += p.Sched.Utilization(end)
			c["fabric.tx_lane_util"] += ratio(float64(p.TX.Busy()), float64(end))
		}
	}
	c["gx.bus_util"] /= float64(len(w.Cluster.Nodes))
	for _, k := range []string{"hca.send_engine_util", "hca.recv_engine_util", "hca.sched_util", "fabric.tx_lane_util"} {
		c[k] /= ports
	}

	// Plane imbalance: the busiest fault plane's bytes over the mean (1 =
	// even; 0 = the fabric has no planes).
	var sum, most float64
	net := w.Cluster.Net
	for pl := 0; pl < net.Planes(); pl++ {
		_, b := net.PlaneStats(pl)
		sum += float64(b)
		most = max(most, float64(b))
	}
	c["fabric.plane_imbalance"] = ratio(most*float64(net.Planes()), sum)

	ib := w.Realm.Stats()
	c["ib.sends_posted"] = float64(ib.SendsPosted)
	c["ib.writes_posted"] = float64(ib.WritesPosted)
	c["ib.reads_posted"] = float64(ib.ReadsPosted)
	c["ib.bytes_sent"] = float64(ib.BytesSent)

	var stripes float64
	for _, s := range rep.RankStats {
		res.Msgs += s.EagerSent + s.RendezvousSent + s.ShmemSent
		c["adi.eager_sent"] += float64(s.EagerSent)
		c["adi.rndv_sent"] += float64(s.RendezvousSent)
		stripes += float64(s.StripesSent + s.StripesRead)
		c["adi.ctrl_msgs"] += float64(s.CtrlMsgs)
		c["adi.unexpected_hits"] += float64(s.UnexpectedHits)
		c["adi.credit_stalls"] += float64(s.CreditStalls)
		c["adi.rail_retransmits"] += float64(s.RailRetransmits)
		c["adi.rail_quarantines"] += float64(s.RailQuarantines)
		c["adi.integrity_nacks"] += float64(s.IntegrityNacks)
		c["shmem.sent"] += float64(s.ShmemSent)
		c["regcache.hits"] += float64(s.RegHits)
		c["regcache.misses"] += float64(s.RegMisses)
	}
	c["adi.stripes_per_rndv"] = ratio(stripes, c["adi.rndv_sent"])
	c["regcache.hit_ratio"] = ratio(c["regcache.hits"], c["regcache.hits"]+c["regcache.misses"])
	c["sim.events_per_msg"] = ratio(float64(events), float64(res.Msgs))
	c["buf.live_after"] = float64(w.BufLive())
}

// ratio is a/b, and 0 where b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func virtUs(ps int64) float64 { return sim.Time(ps).Micros() }

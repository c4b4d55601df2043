package main

// perLayer is every per-layer metric, as BENCHMARK.json lists them. Three
// sources: counters harvested from public getters after each repetition
// (exact per seed), the ladder's isolated rows, and the traced repetition.
// A metric that does not apply to a workload reads 0 there.
var perLayer = layerMetrics()

func layerMetrics() []metricDef {
	const lo, hi = "lower", "higher"
	defs := []metricDef{
		// (a) counters and virtual-time utilizations.
		{Name: "sim.events", Unit: "count", Better: lo},
		{Name: "sim.events_per_msg", Unit: "count", Better: lo},
		{Name: "sim.ns_per_event", Unit: "ns", Better: lo},
		{Name: "sim.virt_per_wall", Unit: "ratio", Better: hi},
		{Name: "hca.wqes", Unit: "count", Better: lo},
		{Name: "hca.acks", Unit: "count", Better: lo},
		{Name: "hca.chunk_retransmits", Unit: "count", Better: lo},
		{Name: "hca.rnr_waits", Unit: "count", Better: lo},
		{Name: "hca.send_engine_util", Unit: "ratio", Better: hi},
		{Name: "hca.recv_engine_util", Unit: "ratio", Better: hi},
		{Name: "hca.sched_util", Unit: "ratio", Better: lo},
		{Name: "gx.bus_util", Unit: "ratio", Better: lo},
		{Name: "gx.bytes", Unit: "bytes", Better: lo},
		{Name: "fabric.tx_lane_util", Unit: "ratio", Better: hi},
		{Name: "fabric.plane_imbalance", Unit: "ratio", Better: lo},
		{Name: "ib.sends_posted", Unit: "count", Better: lo},
		{Name: "ib.writes_posted", Unit: "count", Better: lo},
		{Name: "ib.reads_posted", Unit: "count", Better: lo},
		{Name: "ib.bytes_sent", Unit: "bytes", Better: lo},
		{Name: "adi.eager_sent", Unit: "count", Better: lo},
		{Name: "adi.rndv_sent", Unit: "count", Better: lo},
		{Name: "adi.stripes_per_rndv", Unit: "count", Better: hi},
		{Name: "adi.ctrl_msgs", Unit: "count", Better: lo},
		{Name: "adi.unexpected_hits", Unit: "count", Better: lo},
		{Name: "adi.credit_stalls", Unit: "count", Better: lo},
		{Name: "adi.rail_retransmits", Unit: "count", Better: lo},
		{Name: "adi.rail_quarantines", Unit: "count", Better: lo},
		{Name: "adi.integrity_nacks", Unit: "count", Better: lo},
		{Name: "adi.conn_used_ratio", Unit: "ratio", Better: hi},
		{Name: "shmem.sent", Unit: "count", Better: lo},
		{Name: "shmem.bytes", Unit: "bytes", Better: lo},
		{Name: "regcache.hits", Unit: "count", Better: hi},
		{Name: "regcache.misses", Unit: "count", Better: lo},
		{Name: "regcache.hit_ratio", Unit: "ratio", Better: hi},
		{Name: "buf.live_after", Unit: "count", Better: lo},
		{Name: "nas.lu_virt_s", Unit: "s", Better: lo},
		{Name: "nas.ft_virt_s", Unit: "s", Better: lo},
		{Name: "nas.cg_virt_s", Unit: "s", Better: lo},
		{Name: "model.paper_err_pct", Unit: "%", Better: lo},

		// (b) the ladder: one layer's public functions in isolation.
		{Name: "sim.post_fire_ns.d10", Unit: "ns", Better: lo},
		{Name: "sim.post_fire_ns.d1k", Unit: "ns", Better: lo},
		{Name: "sim.post_fire_ns.d100k", Unit: "ns", Better: lo},
		{Name: "sim.park_resume_ns", Unit: "ns", Better: lo},
		{Name: "core.plan_bulk_ns", Unit: "ns", Better: lo},
		{Name: "buf.capture_release_ns", Unit: "ns", Better: lo},
		{Name: "buf.sum_gbps", Unit: "GB/s", Better: hi},
		{Name: "gx.dma_ns", Unit: "ns", Better: lo},
		{Name: "hca.chunk_ns", Unit: "ns", Better: lo},
		{Name: "hca.events_per_chunk", Unit: "count", Better: lo},
		{Name: "ib.post_send_ns", Unit: "ns", Better: lo},
		{Name: "fabric.bookpath_static_ns", Unit: "ns", Better: lo},
		{Name: "fabric.bookpath_adaptive_ns", Unit: "ns", Better: lo},
		{Name: "shmem.send_ns", Unit: "ns", Better: lo},
		{Name: "regcache.register_warm_ns", Unit: "ns", Better: lo},
		{Name: "regcache.register_cold_ns", Unit: "ns", Better: lo},
		{Name: "trace.record_ns", Unit: "ns", Better: lo},
		{Name: "adi.eager_ns", Unit: "ns", Better: lo},
		{Name: "adi.rndv_1m_us", Unit: "us", Better: lo},
		{Name: "adi.match_ns.d1", Unit: "ns", Better: lo},
		{Name: "adi.match_ns.d1k", Unit: "ns", Better: lo},
		{Name: "adi.match_wild_ns.d1k", Unit: "ns", Better: lo},
		{Name: "topo.build_ms.n256", Unit: "ms", Better: lo},
		{Name: "adi.build_ms.n16", Unit: "ms", Better: lo},
		{Name: "adi.build_ms.n64", Unit: "ms", Better: lo},
		{Name: "adi.build_ms.n256", Unit: "ms", Better: lo},
		{Name: "adi.build_kb_per_conn", Unit: "KB", Better: lo},
		{Name: "sim.shard2_speedup", Unit: "ratio", Better: hi},

		// (c) the traced repetition.
		{Name: "adi.eager_to_deliver_us", Unit: "us", Better: lo},
		{Name: "adi.rts_to_cts_us", Unit: "us", Better: lo},
		{Name: "adi.cts_to_fin_us", Unit: "us", Better: lo},
		{Name: "trace.events", Unit: "count", Better: lo},
		{Name: "trace.overhead_pct", Unit: "%", Better: lo},
	}
	for _, op := range spanOps {
		defs = append(defs,
			metricDef{Name: "mpi.op_virt_p50_us." + op, Unit: "us", Better: lo},
			metricDef{Name: "mpi.op_virt_tail_us." + op, Unit: "us", Better: lo})
	}
	return defs
}

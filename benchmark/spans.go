package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"ib12x/internal/trace"
)

// spanOps are the MPI call kinds whose virtual-time percentiles are
// per-layer metrics; other kinds (isend, irecv, fence, nas.*) appear only in
// the span file.
var spanOps = []string{"send", "recv", "sendrecv", "waitall", "alltoall", "allgather", "bcast", "allreduce", "barrier", "put"}

// tailIndex picks the highest percentile a sample of n supports: p99, or
// lower until at least 10 samples lie beyond it. ok is false when even the
// median would not leave 10 beyond.
func tailIndex(n int) (i int, ok bool) {
	i = min(n*99/100, n-11)
	return i, i >= n/2 && i >= 0
}

// p50tail returns the median and the tailIndex percentile of v (sorted in
// place); the tail is 0 when the sample is too small to support one.
func p50tail(v []float64) (p50, tail float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sort.Float64s(v)
	p50 = v[len(v)/2]
	if i, ok := tailIndex(len(v)); ok {
		tail = v[i]
	}
	return p50, tail
}

// traceMetrics derives the traced repetition's numbers: per-op virtual-time
// percentiles from the benchmark's own spans, and protocol-phase latencies,
// connection use and shared-memory volume from the recorder's events.
func traceMetrics(ranks []*rank, rec *trace.Recorder, size int) map[string]float64 {
	out := map[string]float64{}
	byOp := map[string][]float64{}
	for _, x := range ranks {
		for _, s := range x.spans {
			byOp[s.Op] = append(byOp[s.Op], (s.End - s.Start).Micros())
		}
	}
	for _, op := range spanOps {
		p50, tail := p50tail(byOp[op])
		out["mpi.op_virt_p50_us."+op] = p50
		out["mpi.op_virt_tail_us."+op] = tail
		out["mpi.op_samples."+op] = float64(len(byOp[op]))
	}

	// Pair the k-th opening event of an ordered rank pair with the k-th
	// closing one. Matching order can differ from send order across tags,
	// so a pair that would run backwards is dropped; the median is robust
	// to the few that do.
	type pair struct{ from, to int }
	type phase struct {
		open, shut trace.Kind // the other side of the pair records shut
		q          map[pair][]float64
		d          []float64
	}
	phases := map[string]*phase{
		"adi.eager_to_deliver_us": {open: trace.KindEager, shut: trace.KindDeliver, q: map[pair][]float64{}},
		"adi.rts_to_cts_us":       {open: trace.KindRTS, shut: trace.KindCTS, q: map[pair][]float64{}},
		"adi.cts_to_fin_us":       {open: trace.KindCTS, shut: trace.KindFIN, q: map[pair][]float64{}},
	}
	used := map[pair]bool{}
	var shmBytes float64
	events := rec.Events()
	for _, e := range events {
		if e.Peer >= 0 && e.Peer != e.Rank {
			used[pair{min(e.Rank, e.Peer), max(e.Rank, e.Peer)}] = true
		}
		if e.Kind == trace.KindShmem {
			shmBytes += float64(e.Bytes)
		}
		for _, ph := range phases {
			if e.Kind == ph.open {
				k := pair{e.Rank, e.Peer}
				ph.q[k] = append(ph.q[k], e.T.Micros())
			}
			if e.Kind == ph.shut {
				k := pair{e.Peer, e.Rank}
				if q := ph.q[k]; len(q) > 0 {
					if d := e.T.Micros() - q[0]; d >= 0 {
						ph.d = append(ph.d, d)
					}
					ph.q[k] = q[1:]
				}
			}
		}
	}
	for name, ph := range phases {
		out[name], _ = p50tail(ph.d)
	}
	out["trace.events"] = float64(len(events))
	out["adi.conn_used_ratio"] = ratio(float64(len(used)), float64(size*(size-1)/2))
	out["shmem.bytes"] = shmBytes
	return out
}

// traceEvent is one entry of the Chrome trace-event format, which
// ui.perfetto.dev and chrome://tracing open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the repetition's spans: the wall-clock phases as
// process 0, and every rank's MPI calls in virtual time as process 1 with
// one thread per rank. Each MPI span names the phase that caused it and the
// workload it belongs to.
func writeTrace(path, workload string, res *repResult, ranks []*rank) error {
	us := func(s float64) float64 { return s * 1e6 }
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "host phases (wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "MPI calls per rank (virtual time)"}},
		{Name: "build", Ph: "X", Ts: 0, Dur: us(res.SetupS), Args: map[string]any{"id": workload}},
		{Name: "run", Ph: "X", Ts: us(res.SetupS), Dur: us(res.BodyS - res.SetupS), Args: map[string]any{"id": workload}},
		{Name: "drain", Ph: "X", Ts: us(res.BodyS), Dur: us(res.WallS - res.BodyS), Args: map[string]any{"id": workload}},
		{Name: "verify", Ph: "X", Ts: us(res.WallS), Dur: us(res.VerifyS), Args: map[string]any{"id": workload}},
	}
	for r, x := range ranks {
		for _, s := range x.spans {
			evs = append(evs, traceEvent{
				Name: s.Op, Ph: "X", Ts: s.Start.Micros(), Dur: (s.End - s.Start).Micros(), Pid: 1, Tid: r,
				Args: map[string]any{"rank": r, "bytes": s.Bytes, "parent": "run", "id": workload},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"fmt"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// twoRanks is the paper's testbed pair: 2 nodes × 1 rank, EPC over 4 QPs on
// the flat switch.
func twoRanks() mpi.Config {
	return mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC, Deadline: 60 * sim.Second}
}

const (
	bwWindow  = 64 // §4.2's window
	bwWarmup  = 2
	realSlots = 8 // depth of the verified real-payload window per size
)

var bwSizes = []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}

// bwIters is the timed windows per size and direction. 1 MB keeps the
// figure sweeps' 20 so its virtual bandwidth is the EXPERIMENTS.md number.
var bwIters = map[int]int{16 << 10: 200, 64 << 10: 100, 256 << 10: 60, 1 << 20: 20}

// p2pBW streams windows of non-blocking synthetic messages one way, then
// both ways, at each size, and closes each size with one window of real
// payloads that is verified byte for byte.
func p2pBW(x *rank) {
	me, peer := x.Rank(), 1-x.Rank()
	reqs := make([]*mpi.Request, bwWindow)
	rreqs := make([]*mpi.Request, bwWindow)
	ack := make([]byte, 4)
	for _, n := range bwSizes {
		iters := x.in.iters(bwIters[n])

		// Uni-directional: rank 0 streams, rank 1 acknowledges each window.
		var t0 sim.Time
		for it := 0; it < bwWarmup+iters; it++ {
			if it == bwWarmup {
				t0 = x.Time()
			}
			want := x.in.payload(4, 0, n, it, 0)
			if me == 0 {
				for w := range reqs {
					reqs[w] = x.isend(1, 0, nil, n)
				}
				x.waitall(reqs, n)
				x.recv(1, 1, ack, want)
			} else {
				for w := range reqs {
					reqs[w] = x.irecv(0, 0, nil, n)
				}
				x.waitall(reqs, n)
				x.send(0, 1, want)
			}
		}
		if me == 0 {
			x.extra[fmt.Sprintf("uni_mbps.%d", n)] = mbps(iters*bwWindow*n, x.Time()-t0)
		}

		// Bi-directional exchange: the peer's messages are the implicit ack.
		for it := 0; it < bwWarmup+iters; it++ {
			if it == bwWarmup {
				t0 = x.Time()
			}
			for w := range rreqs {
				rreqs[w] = x.irecv(peer, 0, nil, n)
			}
			for w := range reqs {
				reqs[w] = x.isend(peer, 0, nil, n)
			}
			x.waitall(reqs, n)
			x.waitall(rreqs, n)
		}
		if me == 0 {
			x.extra[fmt.Sprintf("bi_mbps.%d", n)] = mbps(2*iters*bwWindow*n, x.Time()-t0)
		}

		// One verified window of real payloads, both directions at once.
		bufs := make([][]byte, realSlots)
		for w := range bufs {
			bufs[w] = make([]byte, n)
			rreqs[w] = x.irecv(peer, 2, bufs[w], n)
		}
		for w := range bufs {
			reqs[w] = x.isend(peer, 2, x.in.payload(n, me, peer, n, w), n)
		}
		x.waitall(reqs[:realSlots], n)
		x.waitall(rreqs[:realSlots], n)
		for w, b := range bufs {
			x.okBytes("window payload", b, x.in.payload(n, peer, me, n, w))
		}
	}
}

func mbps(bytes int, d sim.Time) float64 { return float64(bytes) / d.Seconds() / 1e6 }

var latSizes = []int{1, 64, 1 << 10, 8 << 10, 64 << 10}

// latIters is the timed round trips per size; 64 KB is a blocking
// rendezvous, which EPC stripes.
var latIters = map[int]int{1: 16000, 64: 16000, 1 << 10: 16000, 8 << 10: 12000, 64 << 10: 5000}

// p2pLat is the blocking ping-pong with a fresh seed-derived payload on
// every leg, verified on every receive.
func p2pLat(x *rank) {
	me, peer := x.Rank(), 1-x.Rank()
	for _, n := range latSizes {
		iters := x.in.iters(latIters[n])
		buf := make([]byte, n)
		t0 := x.Time()
		for it := 0; it < iters; it++ {
			ping := x.in.payload(n, 0, 1, n, it)
			pong := x.in.payload(n, 1, 0, n, it)
			if me == 0 {
				x.send(peer, 0, ping)
				x.recv(peer, 0, buf, pong)
			} else {
				x.recv(peer, 0, buf, ping)
				x.send(peer, 0, pong)
			}
		}
		if me == 0 {
			x.extra[fmt.Sprintf("lat_us.%d", n)] = (x.Time() - t0).Micros() / float64(2*iters)
		}
	}
}

// Package bench implements the paper's measurement methodology (§4.2): the
// OSU-style latency, uni-directional and bi-directional bandwidth tests, and
// the Pallas/IMB-style Alltoall test, all over the simulated cluster.
//
// Iteration counts are lower than the paper's (which fought hardware noise);
// the simulator is deterministic, so steady state is reached as soon as the
// pipeline fills. Warm-up iterations are still excluded, as in the paper.
package bench

import (
	"strconv"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// Setup selects the configuration under test.
type Setup struct {
	QPs    int       // QPs per port (rails)
	Policy core.Kind // scheduling policy
	Nodes  int       // default 2
	PPN    int       // procs per node, default 1
	HCAs   int       // default 1
	Ports  int       // default 1
	Model  *model.Params
	Rndv   adi.RndvProto // rendezvous protocol (default RPUT)

	// EagerProto selects the eager channel (default send/recv; the
	// RDMA-write ring is the EagerLatencyTable ablation).
	EagerProto adi.EagerProto

	// NodesPerSwitch/TrunkRate select a fat-tree fabric (0 = the paper's
	// single switch / trunks at the link rate): two levels under
	// SpinesPerPod spines by default, three with Tiers = 3. Dragonfly
	// selects the dragonfly fabric instead, and Routing picks static
	// D-mod-K vs adaptive path selection (OversubscriptionTable).
	NodesPerSwitch int
	TrunkRate      float64
	Tiers          int
	SpinesPerPod   int
	Dragonfly      topo.Dragonfly
	Routing        fabric.Routing

	// Chaos, when non-nil, arms a fault plan against every run of the
	// setup; Reliability arms the self-healing rail layer. Together they
	// drive the degraded-mode figures.
	Chaos       mpi.ChaosPlan
	Reliability *adi.ReliabilityConfig

	// RegCache, when non-nil, arms the pin-down registration cache (the
	// cold/warm bandwidth split of the supplementary RegCacheTable).
	RegCache *regcache.Config

	// CollAlg selects the collective-algorithm family (zero value keeps
	// the striped reference algorithms; CollLane runs the lane-decomposed
	// ones of the LaneCollTable ablation).
	CollAlg mpi.CollAlg

	// Integrity arms the end-to-end payload checksum model (zero value =
	// off, the historical transport; the IntegrityOverheadTable sweeps it).
	Integrity adi.IntegrityMode
}

// Config builds the mpi.Config this setup describes.
func (s Setup) Config() mpi.Config {
	return mpi.Config{
		Nodes:          max(s.Nodes, 2),
		ProcsPerNode:   max(s.PPN, 1),
		HCAs:           max(s.HCAs, 1),
		Ports:          max(s.Ports, 1),
		QPsPerPort:     max(s.QPs, 1),
		Policy:         s.Policy,
		Model:          s.Model,
		Rndv:           s.Rndv,
		EagerProto:     s.EagerProto,
		NodesPerSwitch: s.NodesPerSwitch,
		TrunkRate:      s.TrunkRate,
		Tiers:          s.Tiers,
		SpinesPerPod:   s.SpinesPerPod,
		Dragonfly:      s.Dragonfly,
		Routing:        s.Routing,
		Chaos:          s.Chaos,
		Reliability:    s.Reliability,
		RegCache:       s.RegCache,
		CollAlg:        s.CollAlg,
		Integrity:      s.Integrity,
	}
}

// Label names the setup the way the paper's figure legends do.
func (s Setup) Label() string {
	qps := max(s.QPs, 1)
	name := s.Policy.String()
	if s.Policy == core.Original {
		return "original (1 QP/port)"
	}
	return name + " " + strconv.Itoa(qps) + "QP"
}

// loop is the iteration plan of one timed cell: warmup untimed iterations,
// then iters timed ones. window is the bandwidth tests' posts per
// iteration; sets, when positive, makes the uni-directional test post real
// payload buffers cycling through that many window-sized sets (0 posts
// synthetic payloads).
type loop struct{ iters, warmup, window, sets int }

// perSize measures one cell per message size, in order.
func perSize(s Setup, sizes []int, at func(Setup, int) (float64, error)) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		v, err := at(s, n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Latency runs the ping-pong test between ranks 0 and 1 and returns the
// one-way latency in microseconds for each message size.
func Latency(s Setup, sizes []int, iters, warmup int) ([]float64, error) {
	return perSize(s, sizes, loop{iters: iters, warmup: warmup}.latency)
}

// latency is one ping-pong cell at n bytes.
func (l loop) latency(s Setup, n int) (float64, error) {
	var elapsed sim.Time
	_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
		buf := make([]byte, n)
		switch c.Rank() {
		case 0:
			var t0 sim.Time
			for it := 0; it < l.warmup+l.iters; it++ {
				if it == l.warmup {
					t0 = c.Time()
				}
				c.Send(1, 0, buf)
				c.Recv(1, 0, buf)
			}
			elapsed = c.Time() - t0
		case 1:
			for it := 0; it < l.warmup+l.iters; it++ {
				c.Recv(0, 0, buf)
				c.Send(0, 0, buf)
			}
		}
	})
	return elapsed.Micros() / float64(2*l.iters), err
}

// ackTag separates the bandwidth test's window acknowledgment.
const ackTag = 1

// UniBandwidth runs the window-based ping-ping test (window posts of
// MPI_Isend, acknowledgment from the receiver) and returns MB/s per size.
func UniBandwidth(s Setup, sizes []int, window, iters, warmup int) ([]float64, error) {
	return perSize(s, sizes, loop{iters: iters, warmup: warmup, window: window}.uniBW)
}

// uniBW is one uni-directional bandwidth cell at n bytes. Each iteration
// posts one window of sends and waits for the receiver's ack, so the
// pipeline drains every iteration. With l.sets > 0 the window carries real
// buffers from set it%sets (the registration cache ignores synthetic
// payloads), so the cache state at the measurement start is the steady
// state of that rotation.
func (l loop) uniBW(s Setup, n int) (float64, error) {
	var elapsed sim.Time
	_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
		sets := make([][][]byte, max(l.sets, 1))
		for k := range sets {
			sets[k] = make([][]byte, l.window)
			for w := range sets[k] {
				if l.sets > 0 {
					sets[k][w] = make([]byte, n)
				}
			}
		}
		reqs := make([]*mpi.Request, l.window)
		switch c.Rank() {
		case 0:
			var t0 sim.Time
			ack := make([]byte, 4)
			for it := 0; it < l.warmup+l.iters; it++ {
				if it == l.warmup {
					t0 = c.Time()
				}
				for w, buf := range sets[it%len(sets)] {
					reqs[w] = c.IsendN(1, 0, buf, n)
				}
				c.Waitall(reqs)
				c.Recv(1, ackTag, ack)
			}
			elapsed = c.Time() - t0
		case 1:
			for it := 0; it < l.warmup+l.iters; it++ {
				for w, buf := range sets[it%len(sets)] {
					reqs[w] = c.IrecvN(0, 0, buf, n)
				}
				c.Waitall(reqs)
				c.Send(0, ackTag, make([]byte, 4))
			}
		}
	})
	bytes := float64(l.iters) * float64(l.window) * float64(n)
	return bytes / elapsed.Seconds() / 1e6, err
}

// BiBandwidth runs the exchange test: both ranks post `window` receives then
// `window` sends per iteration; the peer's messages serve as implicit
// acknowledgments (§4.2). It returns aggregate MB/s per size.
func BiBandwidth(s Setup, sizes []int, window, iters, warmup int) ([]float64, error) {
	return perSize(s, sizes, loop{iters: iters, warmup: warmup, window: window}.biBW)
}

// biBW is one bi-directional bandwidth cell at n bytes.
func (l loop) biBW(s Setup, n int) (float64, error) {
	var elapsed sim.Time
	_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		rreqs := make([]*mpi.Request, l.window)
		sreqs := make([]*mpi.Request, l.window)
		var t0 sim.Time
		for it := 0; it < l.warmup+l.iters; it++ {
			if it == l.warmup {
				t0 = c.Time()
			}
			for w := 0; w < l.window; w++ {
				rreqs[w] = c.IrecvN(peer, 0, nil, n)
			}
			for w := 0; w < l.window; w++ {
				sreqs[w] = c.IsendN(peer, 0, nil, n)
			}
			c.Waitall(sreqs)
			c.Waitall(rreqs)
		}
		if c.Rank() == 0 {
			elapsed = c.Time() - t0
		}
	})
	bytes := 2 * float64(l.iters) * float64(l.window) * float64(n)
	return bytes / elapsed.Seconds() / 1e6, err
}

// Alltoall runs the IMB-style MPI_Alltoall test on the setup's full cluster
// (the paper's Figure 8 uses 2 nodes × 4 processes) and returns the average
// per-operation time in microseconds for each per-pair message size.
func Alltoall(s Setup, sizes []int, iters, warmup int) ([]float64, error) {
	return Collective(CollAlltoall, s, sizes, iters, warmup)
}

// perIter is the IMB timed loop every collective-style cell shares: each
// rank builds its operation with op, all ranks synchronise, l.warmup calls
// run untimed and l.iters timed, and the slowest rank's elapsed time over
// the timed calls is returned.
func (l loop) perIter(s Setup, op func(c *mpi.Comm) func()) (sim.Time, error) {
	var worst sim.Time
	_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
		run := op(c)
		c.Barrier()
		var t0 sim.Time
		for it := 0; it < l.warmup+l.iters; it++ {
			if it == l.warmup {
				t0 = c.Time()
			}
			run()
		}
		el := []int64{int64(c.Time() - t0)}
		c.AllreduceInt64(el, mpi.Max)
		if c.Rank() == 0 {
			worst = sim.Time(el[0])
		}
	})
	return worst, err
}

// MessageRate measures small-message throughput: a window of 8-byte
// non-blocking sends, reported in million messages per second.
func MessageRate(s Setup, window, iters, warmup int) (float64, error) {
	var elapsed sim.Time
	_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
		reqs := make([]*mpi.Request, window)
		switch c.Rank() {
		case 0:
			var t0 sim.Time
			for it := 0; it < warmup+iters; it++ {
				if it == warmup {
					t0 = c.Time()
				}
				for w := range reqs {
					reqs[w] = c.IsendN(1, 0, nil, 8)
				}
				c.Waitall(reqs)
				c.RecvN(1, ackTag, nil, 4)
			}
			elapsed = c.Time() - t0
		case 1:
			for it := 0; it < warmup+iters; it++ {
				for w := range reqs {
					reqs[w] = c.IrecvN(0, 0, nil, 8)
				}
				c.Waitall(reqs)
				c.SendN(0, ackTag, nil, 4)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(iters) * float64(window) / elapsed.Seconds() / 1e6, nil
}

// Sizes builds a doubling size sweep [from, to].
func Sizes(from, to int) []int {
	var out []int
	for n := from; n <= to; n *= 2 {
		out = append(out, n)
	}
	return out
}

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

// Latency runs the ping-pong test between ranks 0 and 1 and returns the
// one-way latency in microseconds for each message size.
func Latency(s Setup, sizes []int, iters, warmup int) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		n := n
		var elapsed sim.Time
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			buf := make([]byte, n)
			switch c.Rank() {
			case 0:
				var t0 sim.Time
				for it := 0; it < warmup+iters; it++ {
					if it == warmup {
						t0 = c.Time()
					}
					c.Send(1, 0, buf)
					c.Recv(1, 0, buf)
				}
				elapsed = c.Time() - t0
			case 1:
				for it := 0; it < warmup+iters; it++ {
					c.Recv(0, 0, buf)
					c.Send(0, 0, buf)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		out[i] = elapsed.Micros() / float64(2*iters)
	}
	return out, nil
}

// ackTag separates the bandwidth test's window acknowledgment.
const ackTag = 1

// UniBandwidth runs the window-based ping-ping test (window posts of
// MPI_Isend, acknowledgment from the receiver) and returns MB/s per size.
func UniBandwidth(s Setup, sizes []int, window, iters, warmup int) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		n := n
		var elapsed sim.Time
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			reqs := make([]*mpi.Request, window)
			switch c.Rank() {
			case 0:
				var t0 sim.Time
				ack := make([]byte, 4)
				for it := 0; it < warmup+iters; it++ {
					if it == warmup {
						t0 = c.Time()
					}
					for w := 0; w < window; w++ {
						reqs[w] = c.IsendN(1, 0, nil, n)
					}
					c.Waitall(reqs)
					c.Recv(1, ackTag, ack)
				}
				elapsed = c.Time() - t0
			case 1:
				for it := 0; it < warmup+iters; it++ {
					for w := 0; w < window; w++ {
						reqs[w] = c.IrecvN(0, 0, nil, n)
					}
					c.Waitall(reqs)
					c.Send(0, ackTag, make([]byte, 4))
				}
			}
		})
		if err != nil {
			return nil, err
		}
		bytes := float64(iters) * float64(window) * float64(n)
		out[i] = bytes / elapsed.Seconds() / 1e6
	}
	return out, nil
}

// BiBandwidth runs the exchange test: both ranks post `window` receives then
// `window` sends per iteration; the peer's messages serve as implicit
// acknowledgments (§4.2). It returns aggregate MB/s per size.
func BiBandwidth(s Setup, sizes []int, window, iters, warmup int) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		n := n
		var elapsed sim.Time
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			peer := 1 - c.Rank()
			rreqs := make([]*mpi.Request, window)
			sreqs := make([]*mpi.Request, window)
			var t0 sim.Time
			for it := 0; it < warmup+iters; it++ {
				if it == warmup {
					t0 = c.Time()
				}
				for w := 0; w < window; w++ {
					rreqs[w] = c.IrecvN(peer, 0, nil, n)
				}
				for w := 0; w < window; w++ {
					sreqs[w] = c.IsendN(peer, 0, nil, n)
				}
				c.Waitall(sreqs)
				c.Waitall(rreqs)
			}
			if c.Rank() == 0 {
				elapsed = c.Time() - t0
			}
		})
		if err != nil {
			return nil, err
		}
		bytes := 2 * float64(iters) * float64(window) * float64(n)
		out[i] = bytes / elapsed.Seconds() / 1e6
	}
	return out, nil
}

// Alltoall runs the IMB-style MPI_Alltoall test on the setup's full cluster
// (the paper's Figure 8 uses 2 nodes × 4 processes) and returns the average
// per-operation time in microseconds for each per-pair message size.
func Alltoall(s Setup, sizes []int, iters, warmup int) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		n := n
		var worst sim.Time
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			c.Barrier()
			var t0 sim.Time
			for it := 0; it < warmup+iters; it++ {
				if it == warmup {
					t0 = c.Time()
				}
				c.Alltoall(nil, n, nil)
			}
			el := c.Time() - t0
			v := []int64{int64(el)}
			c.AllreduceInt64(v, mpi.Max)
			if c.Rank() == 0 {
				worst = sim.Time(v[0])
			}
		})
		if err != nil {
			return nil, err
		}
		out[i] = worst.Micros() / float64(iters)
	}
	return out, nil
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

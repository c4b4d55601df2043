package bench

import (
	"fmt"

	"ib12x/internal/adi"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/stats"
	"ib12x/internal/topo"
)

// Supplementary experiments beyond the paper's figures: the rest of the
// Pallas-style collective suite, the stencil pattern the conclusions name
// as future work, node-count scaling, the RGET/RPUT rendezvous comparison
// and the "no degradation" check on five more NAS kernels. cmd/reproduce
// prints these under -extra.

// CollKind selects a collective for the sweep harness.
type CollKind int

// Collectives covered by the supplementary suite.
const (
	CollBcast CollKind = iota
	CollAllgather
	CollAllreduce
	CollAlltoall
)

func (k CollKind) String() string {
	switch k {
	case CollBcast:
		return "Bcast"
	case CollAllgather:
		return "Allgather"
	case CollAllreduce:
		return "Allreduce"
	case CollAlltoall:
		return "Alltoall"
	default:
		return fmt.Sprintf("CollKind(%d)", int(k))
	}
}

// Collective times one collective operation (average per call, µs) for
// each message size. Sizes are per-rank payload bytes (per-pair for
// Alltoall, per-block for Allgather).
func Collective(kind CollKind, s Setup, sizes []int, iters, warmup int) ([]float64, error) {
	return perSize(s, sizes, loop{iters: iters, warmup: warmup}.collective(kind))
}

// collective is the per-cell measurement of one collective; an unknown kind
// fails every cell before its simulation starts.
func (l loop) collective(kind CollKind) func(Setup, int) (float64, error) {
	return func(s Setup, n int) (float64, error) {
		var op func(c *mpi.Comm) func()
		switch kind {
		case CollBcast:
			op = func(c *mpi.Comm) func() { return func() { c.BcastN(0, nil, n) } }
		case CollAllgather:
			op = func(c *mpi.Comm) func() {
				recv := make([]byte, c.Size()*n)
				return func() { c.Allgather(recv[:n], n, recv) }
			}
		case CollAllreduce:
			op = func(c *mpi.Comm) func() {
				buf := make([]float64, (n+7)/8)
				return func() { c.AllreduceFloat64(buf, mpi.Sum) }
			}
		case CollAlltoall:
			op = func(c *mpi.Comm) func() { return func() { c.Alltoall(nil, n, nil) } }
		default:
			return 0, fmt.Errorf("bench: unknown collective %v", kind)
		}
		el, err := l.perIter(s, op)
		return el.Micros() / float64(l.iters), err
	}
}

// CollectiveTable sweeps one collective across the scheduling policies on
// the paper's 2×4 configuration.
func CollectiveTable(kind CollKind, o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table(fmt.Sprintf("Supplementary: MPI_%s, 2x4 configuration", kind), "Size", "us",
		labeled(
			Setup{QPs: 1, Policy: core.Original, PPN: 4},
			Setup{QPs: 4, Policy: core.RoundRobin, PPN: 4},
			Setup{QPs: 4, Policy: core.EPC, PPN: 4},
		),
		[]int{4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024}, o.bw().collective(kind))
}

// Stencil times a 2-D torus halo exchange (the paper's "future work"
// pattern) and returns µs per iteration.
func Stencil(s Setup, haloBytes, iters int) (float64, error) {
	el, err := loop{iters: iters}.perIter(s, func(c *mpi.Comm) func() {
		p := c.Size()
		gx := 1
		for gx*gx < p {
			gx *= 2
		}
		gy := p / gx
		rank := c.Rank()
		px, py := rank%gx, rank/gx
		left := py*gx + (px-1+gx)%gx
		right := py*gx + (px+1)%gx
		up := ((py-1+gy)%gy)*gx + px
		down := ((py+1)%gy)*gx + px
		return func() {
			c.SendrecvN(right, 1, nil, haloBytes, left, 1, nil, haloBytes)
			c.SendrecvN(left, 2, nil, haloBytes, right, 2, nil, haloBytes)
			if gy > 1 {
				c.SendrecvN(down, 3, nil, haloBytes, up, 3, nil, haloBytes)
				c.SendrecvN(up, 4, nil, haloBytes, down, 4, nil, haloBytes)
			}
		}
	})
	return el.Micros() / float64(iters), err
}

// StencilTable compares the policies on a 4-node stencil (one connection
// active per link at a time: the regime where blocking-transfer policies
// separate, per the paper's §3.2.1 analysis).
func StencilTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Supplementary: 2-D stencil halo exchange, 4 nodes", "Size", "us/iter",
		labeled(
			Setup{QPs: 1, Policy: core.Original, Nodes: 4},
			Setup{QPs: 4, Policy: core.RoundRobin, Nodes: 4},
			Setup{QPs: 4, Policy: core.EPC, Nodes: 4},
		),
		[]int{64 * 1024, 256 * 1024, 1 << 20}, func(s Setup, n int) (float64, error) {
			return Stencil(s, n, o.BWIters)
		})
}

// ScalingTable sweeps node counts (the conclusions' "scalability issues
// for large scale clusters"): per-iteration time of a 1 MB ring exchange.
func ScalingTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Supplementary: 1MB ring exchange vs node count", "Nodes", "us/iter",
		labeled(Setup{QPs: 1, Policy: core.Original}, Setup{QPs: 4, Policy: core.EPC}),
		[]int{2, 4, 8, 16}, func(s Setup, nodes int) (float64, error) {
			s.Nodes = nodes
			el, err := loop{iters: o.BWIters}.perIter(s, func(c *mpi.Comm) func() {
				p := c.Size()
				right := (c.Rank() + 1) % p
				left := (c.Rank() - 1 + p) % p
				return func() { c.SendrecvN(right, 0, nil, 1<<20, left, 0, nil, 1<<20) }
			})
			return el.Micros() / float64(o.BWIters), err
		})
}

// RendezvousTable compares the RPUT (paper) and RGET rendezvous engines on
// uni-directional bandwidth.
func RendezvousTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Supplementary: rendezvous protocol, uni-directional bandwidth (EPC 4QP)", "Size", "MB/s",
		[]column{
			{name: "RPUT (sender writes)", s: Setup{QPs: 4, Policy: core.EPC, Rndv: adi.RndvWrite}},
			{name: "RGET (receiver reads)", s: Setup{QPs: 4, Policy: core.EPC, Rndv: adi.RndvRead}},
		},
		[]int{16 * 1024, 64 * 1024, 256 * 1024, 1 << 20}, o.bw().uniBW)
}

// OversubscriptionTable sweeps routed-fabric oversubscription on a
// bisection shift exchange — the "scalability issues for large scale
// clusters" axis of the conclusions. Rows 1/2/4 are three-tier fat trees
// (16 nodes, 4 per leaf, SpinesPerPod 4/2/1 → 1:1, 2:1, 4:1 at the leaf);
// row 8 is a dragonfly (2 groups × 2 routers × 2 nodes, 2 global lanes,
// trunks at half rate). Each shape runs static D-mod-K vs adaptive
// least-loaded routing, clean and with spine/global plane 0 degraded to a
// quarter of its rate — the qualitative adaptive-routing win of
// Maglione-Mathey et al. "flat" is the single-switch reference the 1:1
// clean adaptive cell must sit within noise of.
func OversubscriptionTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	t := &stats.Table{
		Title:  "Supplementary: routed-fabric oversubscription, 1MB shift exchange (EPC 4QP); rows 1/2/4: 16-node three-tier tree, row 8: 8-node dragonfly 2gx2r; degraded = plane 0 at 25% rate",
		XLabel: "Oversub", Unit: "MB/s",
	}
	shift := func(s Setup, _ int) (float64, error) {
		el, err := loop{iters: o.BWIters}.perIter(s, func(c *mpi.Comm) func() {
			peer := (c.Rank() + c.Size()/2) % c.Size()
			return func() { c.SendrecvN(peer, 0, nil, 1<<20, peer, 0, nil, 1<<20) }
		})
		cfg := s.Config()
		sent := float64(o.BWIters) * float64(cfg.Nodes*cfg.ProcsPerNode) * float64(1<<20)
		return sent / el.Seconds() / 1e6, err
	}
	if err := sweep(t, []column{{name: "flat", s: Setup{QPs: 4, Policy: core.EPC, Nodes: 16}}}, []int{1}, shift); err != nil {
		return nil, err
	}
	var cols []column
	for _, routing := range []fabric.Routing{fabric.RouteStatic, fabric.RouteAdaptive} {
		cols = append(cols,
			column{name: routing.String() + " clean", s: Setup{QPs: 4, Policy: core.EPC, Routing: routing}},
			column{name: routing.String() + " degraded", s: Setup{QPs: 4, Policy: core.EPC, Routing: routing,
				Chaos: chaos.DegradedTrunk(0, sim.Second, 0, 0.25)}})
	}
	link := model.Default().LinkRawRate
	err := sweep(t, cols, []int{1, 2, 4, 8}, func(s Setup, x int) (float64, error) {
		switch x {
		case 8:
			s.Nodes, s.NodesPerSwitch = 8, 2
			s.Dragonfly = topo.Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
			s.TrunkRate = link / 2
		default: // a 1:x three-tier tree
			s.Nodes, s.NodesPerSwitch, s.Tiers, s.SpinesPerPod = 16, 4, 3, 4/x
		}
		return shift(s, x)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AlltoallAlgTable compares the Alltoall algorithms (ablation): the cyclic
// pairwise ladder the paper's MVAPICH used, the fully-concurrent linear
// algorithm, and Bruck's log-step merge for small blocks.
func AlltoallAlgTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	var cols []column
	for _, alg := range []mpi.A2AAlg{mpi.A2APairwise, mpi.A2ALinear, mpi.A2ABruck} {
		cols = append(cols, column{name: alg.String(), s: Setup{QPs: 4, Policy: core.EPC, PPN: 4},
			at: func(s Setup, n int) (float64, error) {
				el, err := o.bw().perIter(s, func(c *mpi.Comm) func() {
					return func() { c.AlltoallAlg(alg, nil, n, nil) }
				})
				return el.Micros() / float64(o.BWIters), err
			}})
	}
	return table("Supplementary: Alltoall algorithm ablation, 2x4, EPC 4QP", "Size", "us",
		cols, []int{64, 1024, 16 * 1024, 256 * 1024}, nil)
}

// HCAGenerationTable compares the paper's IBM 12x/GX+ HCA with the
// contemporary 8x PCI-Express generation its introduction cites, both under
// their best configuration (EPC over all engines) and single-rail.
func HCAGenerationTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	m8 := model.PCIe8x()
	return table("Supplementary: HCA generations, uni-directional bandwidth", "Size", "MB/s",
		[]column{
			{name: "8x PCIe original", s: Setup{QPs: 1, Policy: core.Original, Model: m8}},
			{name: "8x PCIe EPC 2QP", s: Setup{QPs: 2, Policy: core.EPC, Model: m8}},
			{name: "12x GX+ original", s: Setup{QPs: 1, Policy: core.Original}},
			{name: "12x GX+ EPC 4QP", s: Setup{QPs: 4, Policy: core.EPC}},
		},
		[]int{16 * 1024, 256 * 1024, 1 << 20}, o.bw().uniBW)
}

// NoDegradationTable runs five more NAS kernels, EP, CG, MG and LU, on
// 2 procs, single-rail original (1 QP/port) against EPC (4 QPs/port) — the
// paper: "we have not seen performance degradation using other NAS
// Parallel Benchmarks". One column per kernel and class.
func NoDegradationTable() (*stats.Table, error) {
	var cols []column
	for _, k := range []struct {
		kernel string
		class  byte
	}{{"ep", 'S'}, {"cg", 'S'}, {"cg", 'A'}, {"mg", 'A'}, {"lu", 'W'}} {
		cols = append(cols, column{name: fmt.Sprintf("%s.%c", k.kernel, k.class),
			at: func(s Setup, qps int) (float64, error) {
				s.QPs, s.Policy = qps, core.EPC
				if qps == 1 {
					s.Policy = core.Original
				}
				return nasSeconds(s, k.kernel, k.class)
			}})
	}
	return table("Supplementary: other NAS kernels, original (1 QP/port) vs EPC (4 QPs/port), 2 procs", "QPs/port", "s",
		cols, []int{1, 4}, nil)
}

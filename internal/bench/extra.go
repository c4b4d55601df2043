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
// and the EP/CG "no degradation" check. cmd/reproduce prints these under
// -extra.

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
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		n := n
		var worst sim.Time
		_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
			p := c.Size()
			var run func()
			switch kind {
			case CollBcast:
				run = func() { c.BcastN(0, nil, n) }
			case CollAllgather:
				recv := make([]byte, p*n)
				run = func() { c.Allgather(recv[:n], n, recv) }
			case CollAllreduce:
				buf := make([]float64, (n+7)/8)
				run = func() { c.AllreduceFloat64(buf, mpi.Sum) }
			case CollAlltoall:
				run = func() { c.Alltoall(nil, n, nil) }
			}
			c.Barrier()
			var t0 sim.Time
			for it := 0; it < warmup+iters; it++ {
				if it == warmup {
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
		if err != nil {
			return nil, err
		}
		out[i] = worst.Micros() / float64(iters)
	}
	return out, nil
}

// CollectiveTable sweeps one collective across the scheduling policies on
// the paper's 2×4 configuration.
func CollectiveTable(kind CollKind, o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024}
	t := &stats.Table{
		Title:  fmt.Sprintf("Supplementary: MPI_%s, 2x4 configuration", kind),
		XLabel: "Size", Unit: "us",
	}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original, PPN: 4},
		{QPs: 4, Policy: core.RoundRobin, PPN: 4},
		{QPs: 4, Policy: core.EPC, PPN: 4},
	} {
		vals, err := Collective(kind, s, sizes, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, s.Label(), sizes, vals)
	}
	return t, nil
}

// Stencil times a 2-D torus halo exchange (the paper's "future work"
// pattern) and returns µs per iteration.
func Stencil(s Setup, haloBytes, iters int) (float64, error) {
	var worst sim.Time
	cfg := s.Config()
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
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
		c.Barrier()
		t0 := c.Time()
		for it := 0; it < iters; it++ {
			c.SendrecvN(right, 1, nil, haloBytes, left, 1, nil, haloBytes)
			c.SendrecvN(left, 2, nil, haloBytes, right, 2, nil, haloBytes)
			if gy > 1 {
				c.SendrecvN(down, 3, nil, haloBytes, up, 3, nil, haloBytes)
				c.SendrecvN(up, 4, nil, haloBytes, down, 4, nil, haloBytes)
			}
		}
		el := []int64{int64(c.Time() - t0)}
		c.AllreduceInt64(el, mpi.Max)
		if rank == 0 {
			worst = sim.Time(el[0])
		}
	})
	if err != nil {
		return 0, err
	}
	return worst.Micros() / float64(iters), nil
}

// StencilTable compares the policies on a 4-node stencil (one connection
// active per link at a time: the regime where blocking-transfer policies
// separate, per the paper's §3.2.1 analysis).
func StencilTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{64 * 1024, 256 * 1024, 1 << 20}
	t := &stats.Table{
		Title:  "Supplementary: 2-D stencil halo exchange, 4 nodes",
		XLabel: "Size", Unit: "us/iter",
	}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original, Nodes: 4},
		{QPs: 4, Policy: core.RoundRobin, Nodes: 4},
		{QPs: 4, Policy: core.EPC, Nodes: 4},
	} {
		for _, n := range sizes {
			v, err := Stencil(s, n, o.BWIters)
			if err != nil {
				return nil, err
			}
			t.Add(s.Label(), n, v)
		}
	}
	return t, nil
}

// ScalingTable sweeps node counts (the conclusions' "scalability issues
// for large scale clusters"): per-iteration time of a 1 MB ring exchange.
func ScalingTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	t := &stats.Table{
		Title:  "Supplementary: 1MB ring exchange vs node count",
		XLabel: "Nodes", Unit: "us/iter",
	}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.EPC},
	} {
		for _, nodes := range []int{2, 4, 8, 16} {
			s := s
			s.Nodes = nodes
			var worst sim.Time
			_, err := mpi.Run(s.Config(), func(c *mpi.Comm) {
				p := c.Size()
				right := (c.Rank() + 1) % p
				left := (c.Rank() - 1 + p) % p
				c.Barrier()
				t0 := c.Time()
				for it := 0; it < o.BWIters; it++ {
					c.SendrecvN(right, 0, nil, 1<<20, left, 0, nil, 1<<20)
				}
				el := []int64{int64(c.Time() - t0)}
				c.AllreduceInt64(el, mpi.Max)
				if c.Rank() == 0 {
					worst = sim.Time(el[0])
				}
			})
			if err != nil {
				return nil, err
			}
			t.Add(s.Label(), nodes, worst.Micros()/float64(o.BWIters))
		}
	}
	return t, nil
}

// RendezvousTable compares the RPUT (paper) and RGET rendezvous engines on
// uni-directional bandwidth.
func RendezvousTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 64 * 1024, 256 * 1024, 1 << 20}
	t := &stats.Table{
		Title:  "Supplementary: rendezvous protocol, uni-directional bandwidth (EPC 4QP)",
		XLabel: "Size", Unit: "MB/s",
	}
	for _, r := range []struct {
		name string
		p    adi.RndvProto
	}{
		{"RPUT (sender writes)", adi.RndvWrite},
		{"RGET (receiver reads)", adi.RndvRead},
	} {
		vals := make([]float64, len(sizes))
		for i, n := range sizes {
			n := n
			var elapsed sim.Time
			cfg := Setup{QPs: 4, Policy: core.EPC}.Config()
			cfg.Rndv = r.p
			_, err := mpi.Run(cfg, func(c *mpi.Comm) {
				reqs := make([]*mpi.Request, o.Window)
				switch c.Rank() {
				case 0:
					var t0 sim.Time
					for it := 0; it < o.BWWarmup+o.BWIters; it++ {
						if it == o.BWWarmup {
							t0 = c.Time()
						}
						for w := range reqs {
							reqs[w] = c.IsendN(1, 0, nil, n)
						}
						c.Waitall(reqs)
						c.RecvN(1, 1, nil, 4)
					}
					elapsed = c.Time() - t0
				case 1:
					for it := 0; it < o.BWWarmup+o.BWIters; it++ {
						for w := range reqs {
							reqs[w] = c.IrecvN(0, 0, nil, n)
						}
						c.Waitall(reqs)
						c.SendN(0, 1, nil, 4)
					}
				}
			})
			if err != nil {
				return nil, err
			}
			vals[i] = float64(o.BWIters) * float64(o.Window) * float64(n) / elapsed.Seconds() / 1e6
		}
		addSweep(t, r.name, sizes, vals)
	}
	return t, nil
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
	run := func(s Setup) (float64, error) {
		var worst sim.Time
		cfg := s.Config()
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			p := c.Size()
			peer := (c.Rank() + p/2) % p
			c.Barrier()
			t0 := c.Time()
			for it := 0; it < o.BWIters; it++ {
				c.SendrecvN(peer, 0, nil, 1<<20, peer, 0, nil, 1<<20)
			}
			el := []int64{int64(c.Time() - t0)}
			c.AllreduceInt64(el, mpi.Max)
			if c.Rank() == 0 {
				worst = sim.Time(el[0])
			}
		})
		if err != nil {
			return 0, err
		}
		sent := float64(o.BWIters) * float64(cfg.Nodes*cfg.ProcsPerNode) * float64(1<<20)
		return sent / worst.Seconds() / 1e6, nil
	}
	flat, err := run(Setup{QPs: 4, Policy: core.EPC, Nodes: 16})
	if err != nil {
		return nil, err
	}
	t.Add("flat", 1, flat)
	link := model.Default().LinkRawRate
	shapes := []struct {
		x   int
		set func(*Setup)
	}{
		{1, func(s *Setup) { s.Nodes, s.NodesPerSwitch, s.Tiers, s.SpinesPerPod = 16, 4, 3, 4 }},
		{2, func(s *Setup) { s.Nodes, s.NodesPerSwitch, s.Tiers, s.SpinesPerPod = 16, 4, 3, 2 }},
		{4, func(s *Setup) { s.Nodes, s.NodesPerSwitch, s.Tiers, s.SpinesPerPod = 16, 4, 3, 1 }},
		{8, func(s *Setup) {
			s.Nodes, s.NodesPerSwitch = 8, 2
			s.Dragonfly = topo.Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
			s.TrunkRate = link / 2
		}},
	}
	for _, routing := range []fabric.Routing{fabric.RouteStatic, fabric.RouteAdaptive} {
		for _, degraded := range []bool{false, true} {
			name := routing.String() + " clean"
			if degraded {
				name = routing.String() + " degraded"
			}
			for _, sh := range shapes {
				s := Setup{QPs: 4, Policy: core.EPC, Routing: routing}
				sh.set(&s)
				if degraded {
					s.Chaos = chaos.DegradedTrunk(0, sim.Second, 0, 0.25)
				}
				v, err := run(s)
				if err != nil {
					return nil, err
				}
				t.Add(name, sh.x, v)
			}
		}
	}
	return t, nil
}

// AlltoallAlgTable compares the Alltoall algorithms (ablation): the cyclic
// pairwise ladder the paper's MVAPICH used, the fully-concurrent linear
// algorithm, and Bruck's log-step merge for small blocks.
func AlltoallAlgTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{64, 1024, 16 * 1024, 256 * 1024}
	t := &stats.Table{
		Title:  "Supplementary: Alltoall algorithm ablation, 2x4, EPC 4QP",
		XLabel: "Size", Unit: "us",
	}
	for _, alg := range []mpi.A2AAlg{mpi.A2APairwise, mpi.A2ALinear, mpi.A2ABruck} {
		vals := make([]float64, len(sizes))
		for i, n := range sizes {
			n := n
			var worst sim.Time
			_, err := mpi.Run(Setup{QPs: 4, Policy: core.EPC, PPN: 4}.Config(), func(c *mpi.Comm) {
				c.Barrier()
				var t0 sim.Time
				for it := 0; it < o.BWWarmup+o.BWIters; it++ {
					if it == o.BWWarmup {
						t0 = c.Time()
					}
					c.AlltoallAlg(alg, nil, n, nil)
				}
				el := []int64{int64(c.Time() - t0)}
				c.AllreduceInt64(el, mpi.Max)
				if c.Rank() == 0 {
					worst = sim.Time(el[0])
				}
			})
			if err != nil {
				return nil, err
			}
			vals[i] = worst.Micros() / float64(o.BWIters)
		}
		addSweep(t, alg.String(), sizes, vals)
	}
	return t, nil
}

// HCAGenerationTable compares the paper's IBM 12x/GX+ HCA with the
// contemporary 8x PCI-Express generation its introduction cites, both under
// their best configuration (EPC over all engines) and single-rail.
func HCAGenerationTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{16 * 1024, 256 * 1024, 1 << 20}
	t := &stats.Table{
		Title:  "Supplementary: HCA generations, uni-directional bandwidth",
		XLabel: "Size", Unit: "MB/s",
	}
	type cfg struct {
		name  string
		setup Setup
	}
	m8 := model.PCIe8x()
	cfgs := []cfg{
		{"8x PCIe original", Setup{QPs: 1, Policy: core.Original, Model: m8}},
		{"8x PCIe EPC 2QP", Setup{QPs: 2, Policy: core.EPC, Model: m8}},
		{"12x GX+ original", Setup{QPs: 1, Policy: core.Original}},
		{"12x GX+ EPC 4QP", Setup{QPs: 4, Policy: core.EPC}},
	}
	for _, c := range cfgs {
		vals, err := UniBandwidth(c.setup, sizes, o.Window, o.BWIters, o.BWWarmup)
		if err != nil {
			return nil, err
		}
		addSweep(t, c.name, sizes, vals)
	}
	return t, nil
}

// NoDegradationTable runs EP and CG (the paper: "we have not seen
// performance degradation using other NAS Parallel Benchmarks").
func NoDegradationTable() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Supplementary: other NAS kernels, original vs EPC (2 procs)",
		XLabel: "Kernel", Unit: "s",
	}
	for i, k := range []struct {
		kernel string
		class  byte
	}{{"ep", 'S'}, {"cg", 'S'}, {"cg", 'A'}, {"mg", 'A'}, {"lu", 'W'}} {
		orig, err := nasSeconds(Setup{QPs: 1, Policy: core.Original}, k.kernel, k.class)
		if err != nil {
			return nil, err
		}
		epc, err := nasSeconds(Setup{QPs: 4, Policy: core.EPC}, k.kernel, k.class)
		if err != nil {
			return nil, err
		}
		t.Add("original (1 QP/port)", i, orig)
		t.Add("EPC 4QP", i, epc)
	}
	return t, nil
}

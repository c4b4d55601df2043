package bench

import (
	"fmt"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/stats"
)

// The lane-collective ablation: the same collective at the same size run
// three ways, so the table separates WHERE the multi-rail parallelism is
// extracted —
//
//   lane     — lane-decomposed algorithm, one sub-collective pinned per
//              rail (EPC for the point-to-point residue);
//   striped  — reference algorithm with transport-layer striping under
//              every transfer (EvenStriping);
//   EPC      — reference algorithm over the paper's best point-to-point
//              policy, one rail per transfer.
//
// Both a flat 2-node fabric and an oversubscribed two-level fat tree run
// the sweep: trunk contention is where the lane schedule's fewer, larger,
// rail-disjoint transfers should separate from striping every hop.

// laneCollCases is one column per (topology, collective, algorithm).
func laneCollCases(l loop) []column {
	flat := Setup{QPs: 4, Job: mpi.Config{Nodes: 2, ProcsPerNode: 2}}
	// 8 leaf nodes under 2 switches, trunks at 2:1 oversubscription.
	tree := Setup{QPs: 4, Job: mpi.Config{Nodes: 8, ProcsPerNode: 1, NodesPerSwitch: 4,
		TrunkRate: model.Default().LinkRawRate * 4 / 2}}
	var cols []column
	for _, topo := range []struct {
		name string
		base Setup
	}{{"2x2 flat", flat}, {"8x1 fat-tree 2:1", tree}} {
		for _, kind := range []CollKind{CollBcast, CollAllgather, CollAllreduce} {
			for _, alg := range []struct {
				name    string
				policy  core.Kind
				collAlg mpi.CollAlg
			}{
				{"lane", core.EPC, mpi.CollLane},
				{"striped", core.EvenStriping, mpi.CollStriped},
				{"EPC", core.EPC, mpi.CollStriped},
			} {
				s := topo.base
				s.Policy = alg.policy
				s.Job.CollAlg = alg.collAlg
				cols = append(cols, column{fmt.Sprintf("%s %s %s", topo.name, kind, alg.name), s, l.collective(kind)})
			}
		}
	}
	return cols
}

// laneCollSizes spans the CollAuto dispatch threshold: 16K sits below it
// (reference algorithms win on fix-up overhead), 256K well above.
var laneCollSizes = []int{16 * 1024, 64 * 1024, 256 * 1024}

// LaneCollTable sweeps the lane/striped/EPC ablation over collectives,
// sizes, and fabrics (printed by cmd/reproduce -extra).
func LaneCollTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Supplementary: lane-decomposed collectives vs transport striping", "Size", "us",
		laneCollCases(o.bw()), laneCollSizes, nil)
}

package bench

import (
	"ib12x/internal/adi"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/stats"
)

// degradedPolicies is every multi-rail policy of the differential matrix —
// each must degrade gracefully, not just the ones the paper plots.
var degradedPolicies = []core.Kind{
	core.Binding,
	core.RoundRobin,
	core.EvenStriping,
	core.WeightedStriping,
	core.EPC,
	core.Adaptive,
}

// DegradedRailTable regenerates the Figure 6 bandwidth sweep with rail 0 of
// node 0 dead from t=0 and the self-healing reliability layer armed: the
// endpoints must detect the corpse on their own evidence (the operator only
// flips QP state), quarantine it out of every policy's mask, and run the
// sweep on the three survivors. One column per policy, so the supplementary
// table shows how each planner sheds a quarter of its fabric.
func DegradedRailTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	var cols []column
	for _, kind := range degradedPolicies {
		cols = append(cols, column{name: kind.String(), s: Setup{QPs: 4, Policy: kind, Job: mpi.Config{
			Chaos:       chaos.RailDeath(0, 0, 0),
			Reliability: &adi.ReliabilityConfig{Seed: 1},
		}}})
	}
	return table("Supplementary: uni-directional bandwidth, one rail dead (self-healing)", "Size", "MB/s",
		cols, largeSizes, o.bw().uniBW)
}

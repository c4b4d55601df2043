package bench

import (
	"fmt"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/stats"
)

// The RDMA-write eager ablation: the small-message latency floor measured
// under both eager channels for every scheduling policy. The send/recv
// channel pays a full CQE handshake per arrival (CPUCompletion) and a full
// MPI header per message; the ring channel's polling set discovers the slot
// write for RingPollCost and a warm header cache compresses the repeated
// (tag, context) signature, so the ring must sit strictly below send/recv
// at every small size under every policy — the channel is orthogonal to
// rail scheduling. This is the headline table of the RDMA-write eager PR
// (printed by cmd/reproduce -extra).

// eagerLatPolicies spans every multi-rail scheduling policy; the eager
// channel must win under each one.
var eagerLatPolicies = []core.Kind{
	core.Binding, core.RoundRobin, core.EvenStriping,
	core.WeightedStriping, core.EPC, core.Adaptive,
}

// eagerLatSizes spans the small-message regime: 1B to the largest payload
// a ring slot holds (8KB); everything here is below the rendezvous
// threshold on both channels.
var eagerLatSizes = []int{1, 16, 256, 1024, 4096, 8192}

// eagerLatCases is one column per (policy, eager channel), send/recv then
// rdma-write under each policy.
func eagerLatCases() []column {
	var cols []column
	for _, kind := range eagerLatPolicies {
		for _, proto := range []struct {
			name string
			p    adi.EagerProto
		}{{"send/recv", adi.EagerSendRecv}, {"rdma-write", adi.EagerRDMAWrite}} {
			cols = append(cols, column{
				name: fmt.Sprintf("%s %s", kind, proto.name),
				s:    Setup{QPs: 4, Policy: kind, Job: mpi.Config{EagerProto: proto.p}},
			})
		}
	}
	return cols
}

// EagerLatencyTable sweeps the small-message latency floor over both eager
// channels and all scheduling policies.
func EagerLatencyTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	return table("Supplementary: small-message latency floor, RDMA-write eager ring vs send/recv", "Size", "us",
		eagerLatCases(), eagerLatSizes, o.lat().latency)
}

package main

import (
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

func collWorld() mpi.Config {
	return mpi.Config{Nodes: 8, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC, Deadline: 60 * sim.Second}
}

const (
	collIters    = 64
	a2aBytes     = 16 << 10
	allgBytes    = 64 << 10
	bcastBytes   = 256 << 10
	allreduceLen = 1024
)

// Payload key namespaces, so no two collectives share a pattern.
const (
	keyAlltoall = iota
	keyAllgather
	keyBcast
)

// collMix runs one of each collective family per iteration and verifies
// every result against the patterns the contributing ranks must have sent.
func collMix(x *rank) {
	me, p := x.Rank(), x.Size()
	a2aSend := make([]byte, p*a2aBytes)
	a2aRecv := make([]byte, p*a2aBytes)
	allg := make([]byte, p*allgBytes)
	bc := make([]byte, bcastBytes)
	vals := make([]int64, allreduceLen)
	rootBase := int(uint64(x.in.seed) % uint64(p))

	for it, n := 0, x.in.iters(collIters); it < n; it++ {
		for d := 0; d < p; d++ {
			copy(a2aSend[d*a2aBytes:], x.in.payload(a2aBytes, keyAlltoall, me, d, it))
		}
		t0 := x.Time()
		x.Alltoall(a2aSend, a2aBytes, a2aRecv)
		x.end("alltoall", p*a2aBytes, t0)
		for s := 0; s < p; s++ {
			x.okBytes("alltoall block", a2aRecv[s*a2aBytes:(s+1)*a2aBytes], x.in.payload(a2aBytes, keyAlltoall, s, me, it))
		}

		t0 = x.Time()
		x.Allgather(x.in.payload(allgBytes, keyAllgather, me, it, 0), allgBytes, allg)
		x.end("allgather", p*allgBytes, t0)
		for s := 0; s < p; s++ {
			x.okBytes("allgather block", allg[s*allgBytes:(s+1)*allgBytes], x.in.payload(allgBytes, keyAllgather, s, it, 0))
		}

		root := (rootBase + it) % p
		want := x.in.payload(bcastBytes, keyBcast, root, it, 0)
		if me == root {
			copy(bc, want)
		}
		t0 = x.Time()
		x.Bcast(root, bc)
		x.end("bcast", bcastBytes, t0)
		x.okBytes("bcast", bc, want)

		for i := range vals {
			vals[i] = int64((me + 1) * (i + it + 1))
		}
		t0 = x.Time()
		x.AllreduceInt64(vals, mpi.Sum)
		x.end("allreduce", 8*allreduceLen, t0)
		x.ops++
		for i, v := range vals {
			if want := int64(p * (p + 1) / 2 * (i + it + 1)); v != want {
				x.failf("allreduce[%d] = %d, want %d", i, v, want)
				break
			}
		}

		x.barrier()
	}
}

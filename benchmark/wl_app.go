package main

import (
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/nas"
	"ib12x/internal/sim"
)

const deckBytes = 4 << 10

// nasApp runs three NAS kernels back to back, each preceded by a verified
// broadcast of a seed-derived input deck (the only seed-dependent traffic:
// the kernels' own inputs are fixed by the NPB specification). LU and CG do
// their real numerics; FT class B runs synthetic — the field would not fit —
// so FT class S runs the real FFT first and carries FT's numeric check.
func nasApp(in *inputs) (mpi.Config, func(*rank)) {
	cfg := mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC, Deadline: 600 * sim.Second}
	lu, ftB, cg := nas.LUClassA, nas.FTClassB, nas.CGClassW
	if in.quick {
		lu, ftB, cg = nas.LUClassS, nas.FTClassS, nas.CGClassS
	}
	board := nas.NewFTBoard(cfg.Size())
	return cfg, func(x *rank) {
		deck := make([]byte, deckBytes)
		decks := 0
		kernel := func(name string, run func() (sim.Time, bool)) {
			want := x.in.payload(deckBytes, decks, 0, 0, 0)
			decks++
			if x.Rank() == 0 {
				copy(deck, want)
			}
			t0 := x.Time()
			x.Bcast(0, deck)
			x.end("bcast", deckBytes, t0)
			x.okBytes("input deck", deck, want)

			t0 = x.Time()
			el, ok := run()
			x.end("nas."+name, 0, t0)
			x.ops++
			if !ok {
				x.failf("NAS %s not verified", name)
			}
			if x.Rank() == 0 {
				x.extra["nas."+name+"_virt_s"] += el.Seconds()
			}
		}
		kernel("lu", func() (sim.Time, bool) {
			r := nas.RunLU(x.Comm, lu)
			return r.Elapsed, r.Verified
		})
		kernel("ft", func() (sim.Time, bool) {
			r := nas.RunFT(x.Comm, nas.FTClassS, false, board)
			return r.Elapsed, r.Verified
		})
		kernel("ft", func() (sim.Time, bool) {
			r := nas.RunFT(x.Comm, ftB, true, board)
			return r.Elapsed, r.Verified
		})
		kernel("cg", func() (sim.Time, bool) {
			r := nas.RunCG(x.Comm, cg)
			return r.Elapsed, r.Verified
		})
	}
}

const (
	ringRounds = 48
	ringBytes  = 256 << 10
)

func ringWorld() mpi.Config {
	return mpi.Config{Nodes: 256, NodesPerSwitch: 16, QPsPerPort: 4, Policy: core.EPC, Deadline: 60 * sim.Second}
}

// scaleRing passes a block round the ring each round, sending right and
// receiving from the left: a world of 256 all-to-all-connected ranks of
// which each uses two connections. The first round carries real payloads
// and is verified; the rest are synthetic.
func scaleRing(x *rank) {
	me, p := x.Rank(), x.Size()
	right, left := (me+1)%p, (me+p-1)%p
	buf := make([]byte, ringBytes)
	x.sendrecv(right, 0, x.in.payload(ringBytes, me, right, 0, 0), left, 0, buf, x.in.payload(ringBytes, left, me, 0, 0))
	for r, n := 1, x.in.iters(ringRounds); r < n; r++ {
		x.sendrecvN(right, left, 0, ringBytes)
	}
}

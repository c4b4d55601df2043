package adi

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// One-sided operations from rank 0 to itself, to an intra-node peer (rank
// 1, shared memory) and to an inter-node peer (rank 2, RDMA rails), under
// a striping and a non-striping policy: every op's bytes land where they
// should, the atomics return the pre-operation value, message-based ops
// are counted at the target, the bulk ops stripe per the policy and no
// payload block outlives the run.
func TestOneSidedEachTransport(t *testing.T) {
	const (
		n       = 256 << 10 // bulk put/get size: striped under EPC
		accOff  = n         // 16-byte accumulate target
		atomOff = n + 64    // 8-byte atomic target
		winN    = n + 128
	)
	spec := topo.Spec{Nodes: 2, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 2}
	for _, tc := range []struct {
		name    string
		policy  core.Kind
		stripes int64 // stripes of one inter-node bulk op
	}{
		{"EPC", core.EPC, 2},
		{"RoundRobin", core.RoundRobin, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := fill(n, 3)
			acc := make([]byte, 16)
			binary.LittleEndian.PutUint64(acc[0:], 7)
			binary.LittleEndian.PutUint64(acc[8:], 11)
			var (
				keys [4]uint32
				wins [4][]byte
				olds [3][2]uint64
				gets [3][]byte
			)
			target := func(ep *Endpoint) {
				wins[ep.Rank] = make([]byte, winN)
				binary.LittleEndian.PutUint64(wins[ep.Rank][accOff:], 100)
				binary.LittleEndian.PutUint64(wins[ep.Rank][accOff+8:], 200)
				binary.LittleEndian.PutUint64(wins[ep.Rank][atomOff:], 40)
				keys[ep.Rank] = ep.RegisterWindow(0, wins[ep.Rank], winN)
				if ep.Rank == 0 || ep.Rank == 3 {
					return
				}
				// The closing message follows every op on the connection's
				// sequence, so waiting for it drives the target's progress
				// through all message-based ops first.
				ep.Wait(ep.PostRecv(0, 9, CtxPt2Pt, nil, 0))
			}
			w := run(t, spec, Options{Policy: tc.policy},
				func(ep *Endpoint) {
					target(ep)
					ep.Compute(sim.Microsecond) // let the targets expose their windows
					for peer := 0; peer < 3; peer++ {
						req, _ := ep.PutBulk(peer, 0, keys[peer], 0, payload, n, core.Blocking)
						ep.Wait(req)
						gets[peer] = make([]byte, n)
						ep.Wait(ep.GetBulk(peer, 0, keys[peer], 0, gets[peer], n, core.Blocking))
						olds[peer][0] = waitOld(ep, ep.FetchAtomic(peer, 0, keys[peer], atomOff, false, 5, 0))
						olds[peer][1] = waitOld(ep, ep.FetchAtomic(peer, 0, keys[peer], atomOff, true, 45, 90))
						counted := ep.AccumulateSend(peer, 0, accOff, acc, 16, AccSum)
						if counted != (peer != 0) {
							t.Errorf("peer %d: Accumulate counted = %v", peer, counted)
						}
						if peer != 0 {
							ep.Wait(ep.PostSend(peer, 9, CtxPt2Pt, core.Blocking, nil, 0))
						}
					}
					// A self-send rides the same matching path as any other.
					self := fill(64, 9)
					got := make([]byte, 64)
					ep.PostSend(0, 1, CtxPt2Pt, core.Blocking, self, 64)
					if st := ep.Wait(ep.PostRecv(0, 1, CtxPt2Pt, got, 64)); st.Count != 64 || st.Source != 0 || !bytes.Equal(got, self) {
						t.Errorf("self-send: status %+v, bytes equal %v", st, bytes.Equal(got, self))
					}
				},
				target, target, target)

			for peer := 0; peer < 3; peer++ {
				win := wins[peer]
				if !bytes.Equal(win[:n], payload) {
					t.Errorf("peer %d: put bytes wrong", peer)
				}
				if !bytes.Equal(gets[peer], payload) {
					t.Errorf("peer %d: get bytes wrong", peer)
				}
				if a, b := binary.LittleEndian.Uint64(win[accOff:]), binary.LittleEndian.Uint64(win[accOff+8:]); a != 107 || b != 211 {
					t.Errorf("peer %d: accumulate left %d, %d; want 107, 211", peer, a, b)
				}
				if olds[peer] != [2]uint64{40, 45} || binary.LittleEndian.Uint64(win[atomOff:]) != 90 {
					t.Errorf("peer %d: atomics returned %v and left %d; want [40 45] and 90",
						peer, olds[peer], binary.LittleEndian.Uint64(win[atomOff:]))
				}
			}
			// Message-based ops applied at each target: shared memory carries
			// the put and the accumulate, the rails only the accumulate.
			for peer, want := range []int64{0, 2, 1} {
				if got := w.Endpoints[peer].WindowProcessed(0); got != want {
					t.Errorf("peer %d: WindowProcessed = %d, want %d", peer, got, want)
				}
			}
			s0, s1 := w.Endpoints[0].Stats(), w.Endpoints[1].Stats()
			if s0.StripesSent != tc.stripes || s0.StripesRead != tc.stripes {
				t.Errorf("StripesSent/Read = %d/%d, want %d each", s0.StripesSent, s0.StripesRead, tc.stripes)
			}
			// Rank 0 → 1: put, get request, two atomic requests, accumulate,
			// closing message; rank 1 → 0: the get and two atomic responses.
			if s0.ShmemSent != 6 || s1.ShmemSent != 3 {
				t.Errorf("ShmemSent = %d/%d, want 6/3", s0.ShmemSent, s1.ShmemSent)
			}
			if live := w.BufLive(); live != 0 {
				t.Errorf("BufLive = %d after the run: %s", live, w.BufLiveReport())
			}
		})
	}
}

// waitOld waits for an atomic's request and returns the value it fetched.
func waitOld(ep *Endpoint, req *Request) uint64 {
	ep.Wait(req)
	return req.AtomicOld()
}

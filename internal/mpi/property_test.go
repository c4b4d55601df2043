package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
)

// Randomized end-to-end properties: whatever the policy, rail count,
// rendezvous protocol or traffic pattern, MPI semantics must hold — data
// integrity, matching order, and deterministic virtual time.

// trafficCase is a reproducible random traffic pattern between two ranks.
type trafficCase struct {
	sizes []int
	tags  []int
}

func genTraffic(r *rand.Rand, msgs int) trafficCase {
	tc := trafficCase{}
	for i := 0; i < msgs; i++ {
		// Mix eager and rendezvous sizes, biased toward boundaries.
		var n int
		switch r.Intn(4) {
		case 0:
			n = r.Intn(64)
		case 1:
			n = 16*1024 - 32 + r.Intn(64) // straddle the threshold
		case 2:
			n = r.Intn(8 * 1024)
		default:
			n = 16*1024 + r.Intn(256*1024)
		}
		tc.sizes = append(tc.sizes, n)
		tc.tags = append(tc.tags, r.Intn(3)) // few tags → rich matching
	}
	return tc
}

func payloadFor(i, n int) []byte {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(i*31 + k*7)
	}
	return b
}

// runTraffic pushes the pattern through a configuration and checks every
// payload. Receives for a tag are posted in order, so per-tag messages must
// arrive unovertaken.
func runTraffic(t *testing.T, tc trafficCase, kind core.Kind, qps int, rndv adi.RndvProto) {
	t.Helper()
	c := cfg(2, 1, qps, kind)
	c.Rndv = rndv
	mustRun(t, c, func(cm *Comm) {
		if cm.Rank() == 0 {
			var reqs []*Request
			for i, n := range tc.sizes {
				reqs = append(reqs, cm.Isend(1, tc.tags[i], payloadFor(i, n)))
			}
			cm.Waitall(reqs)
		} else {
			// Per tag, messages must arrive in send order.
			nextByTag := map[int][]int{}
			for i, tag := range tc.tags {
				nextByTag[tag] = append(nextByTag[tag], i)
			}
			type rr struct {
				req *Request
				buf []byte
				idx int
			}
			var posted []rr
			for tag, idxs := range nextByTag {
				for _, i := range idxs {
					buf := make([]byte, tc.sizes[i])
					posted = append(posted, rr{cm.Irecv(0, tag, buf), buf, i})
				}
			}
			for _, pr := range posted {
				st := cm.Wait(pr.req)
				if st.Count != tc.sizes[pr.idx] {
					t.Errorf("msg %d: count %d, want %d", pr.idx, st.Count, tc.sizes[pr.idx])
				}
				if !bytes.Equal(pr.buf, payloadFor(pr.idx, tc.sizes[pr.idx])) {
					t.Errorf("msg %d (tag %d, %dB): payload mismatch", pr.idx, tc.tags[pr.idx], tc.sizes[pr.idx])
				}
			}
		}
	})
}

func TestRandomTrafficAllPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 6; trial++ {
		tc := genTraffic(r, 12)
		for _, kind := range []core.Kind{core.Original, core.RoundRobin, core.EvenStriping, core.EPC} {
			qps := 4
			if kind == core.Original {
				qps = 1
			}
			t.Run(fmt.Sprintf("trial%d_%v", trial, kind), func(t *testing.T) {
				runTraffic(t, tc, kind, qps, adi.RndvWrite)
			})
		}
	}
}

func TestRandomTrafficRGET(t *testing.T) {
	r := rand.New(rand.NewSource(999))
	for trial := 0; trial < 4; trial++ {
		tc := genTraffic(r, 10)
		runTraffic(t, tc, core.EPC, 4, adi.RndvRead)
	}
}

// TestPolicyInvariantResults: the scheduling policy may change WHEN data
// arrives, never WHAT arrives. Run an identical mixed workload under every
// policy and compare the received bytes exactly.
func TestPolicyInvariantResults(t *testing.T) {
	workload := func(kind core.Kind, qps int) []byte {
		var digest []byte
		mustRun(t, cfg(2, 2, qps, kind), func(cm *Comm) {
			p := cm.Size()
			// Mixed collectives + pt2pt.
			v := []int64{int64(cm.Rank() * 3)}
			cm.AllreduceInt64(v, Sum)
			buf := make([]byte, 40*1024)
			if cm.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(i * 11)
				}
			}
			cm.Bcast(0, buf)
			blk := make([]byte, p*1024)
			mine := payloadFor(cm.Rank(), 1024)
			cm.Allgather(mine, 1024, blk)
			if cm.Rank() == 1 {
				digest = append(digest, byte(v[0]))
				digest = append(digest, buf[:64]...)
				digest = append(digest, blk[:64]...)
			}
		})
		return digest
	}
	ref := workload(core.Original, 1)
	for _, kind := range []core.Kind{core.RoundRobin, core.EvenStriping, core.EPC} {
		if got := workload(kind, 4); !bytes.Equal(got, ref) {
			t.Errorf("%v: results differ from original", kind)
		}
	}
}

// TestDeterminismAcrossRepeats: the full stack is bit-for-bit repeatable.
func TestDeterminismAcrossRepeats(t *testing.T) {
	run := func() (float64, int64) {
		var wt float64
		var stripes int64
		rep := mustRun(t, cfg(2, 4, 4, core.EPC), func(cm *Comm) {
			cm.Alltoall(nil, 48*1024, nil)
			v := []int64{int64(cm.Rank())}
			cm.AllreduceInt64(v, Max)
			if cm.Rank() == 0 {
				wt = cm.Wtime()
			}
		})
		for _, s := range rep.RankStats {
			stripes += s.StripesSent
		}
		return wt, stripes
	}
	w1, s1 := run()
	w2, s2 := run()
	if w1 != w2 || s1 != s2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", w1, s1, w2, s2)
	}
}

// TestAdaptiveMatchesEPCWithoutMarker: the adaptive extension should match
// EPC's blocking behaviour (striping, since one blocking transfer leaves
// the pipeline empty) and its windowed behaviour (round robin) without ever
// seeing the communication marker.
func TestAdaptiveMatchesEPCWithoutMarker(t *testing.T) {
	lat := func(kind core.Kind) float64 {
		var one float64
		mustRun(t, cfg(2, 1, 4, kind), func(cm *Comm) {
			const iters = 20
			if cm.Rank() == 0 {
				t0 := cm.Time()
				for i := 0; i < iters; i++ {
					cm.SendN(1, 0, nil, 1<<20)
					cm.RecvN(1, 0, nil, 1<<20)
				}
				one = (cm.Time() - t0).Micros() / (2 * iters)
			} else {
				for i := 0; i < iters; i++ {
					cm.RecvN(0, 0, nil, 1<<20)
					cm.SendN(0, 0, nil, 1<<20)
				}
			}
		})
		return one
	}
	epc, ad := lat(core.EPC), lat(core.Adaptive)
	if d := (ad - epc) / epc; d > 0.05 || d < -0.05 {
		t.Errorf("blocking 1MB latency: adaptive %.0fus vs EPC %.0fus", ad, epc)
	}

	bw := func(kind core.Kind) float64 {
		var el float64
		mustRun(t, cfg(2, 1, 4, kind), func(cm *Comm) {
			const w, iters = 32, 6
			reqs := make([]*Request, w)
			if cm.Rank() == 0 {
				t0 := cm.Time()
				for it := 0; it < iters; it++ {
					for i := range reqs {
						reqs[i] = cm.IsendN(1, 0, nil, 1<<20)
					}
					cm.Waitall(reqs)
					cm.RecvN(1, 1, nil, 4)
				}
				el = (cm.Time() - t0).Seconds()
			} else {
				for it := 0; it < iters; it++ {
					for i := range reqs {
						reqs[i] = cm.IrecvN(0, 0, nil, 1<<20)
					}
					cm.Waitall(reqs)
					cm.SendN(0, 1, nil, 4)
				}
			}
		})
		return el
	}
	epcT, adT := bw(core.EPC), bw(core.Adaptive)
	if d := (adT - epcT) / epcT; d > 0.10 {
		t.Errorf("windowed 1MB bandwidth: adaptive %.6fs vs EPC %.6fs", adT, epcT)
	}
}

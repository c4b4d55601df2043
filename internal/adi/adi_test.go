package adi

import (
	"bytes"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
	"ib12x/internal/trace"
)

// spec2x1 is two nodes, one rank each — the micro-benchmark layout.
func spec2x1(qps int) topo.Spec {
	return topo.Spec{Nodes: 2, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: qps}
}

// run builds a world and executes one body per rank.
func run(t *testing.T, spec topo.Spec, opt Options, bodies ...func(ep *Endpoint)) *World {
	t.Helper()
	eng := sim.NewEngine()
	w := NewWorld(eng, model.Default(), spec, opt)
	if len(bodies) != len(w.Endpoints) {
		t.Fatalf("%d bodies for %d ranks", len(bodies), len(w.Endpoints))
	}
	for i, body := range bodies {
		ep, body := w.Endpoints[i], body
		eng.Spawn(procName("t", i), func(p *sim.Proc) {
			ep.Attach(p)
			body(ep)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	payload := fill(1024, 3)
	got := make([]byte, 1024)
	var st Status
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			req := ep.PostSend(1, 42, CtxPt2Pt, core.Blocking, payload, len(payload))
			if !req.Done() {
				t.Error("eager send should complete at post (buffered)")
			}
		},
		func(ep *Endpoint) {
			req := ep.PostRecv(0, 42, CtxPt2Pt, got, len(got))
			st = ep.Wait(req)
		})
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted")
	}
	if st.Source != 0 || st.Tag != 42 || st.Count != 1024 || st.Err != nil {
		t.Errorf("status = %+v", st)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	const n = 256 * 1024
	payload := fill(n, 9)
	got := make([]byte, n)
	w := run(t, spec2x1(4), Options{Policy: core.EPC},
		func(ep *Endpoint) {
			req := ep.PostSend(1, 7, CtxPt2Pt, core.Blocking, payload, n)
			if req.Done() {
				t.Error("rendezvous send must not complete at post")
			}
			ep.Wait(req)
		},
		func(ep *Endpoint) {
			req := ep.PostRecv(0, 7, CtxPt2Pt, got, n)
			st := ep.Wait(req)
			if st.Count != n || st.Err != nil {
				t.Errorf("status = %+v", st)
			}
		})
	if !bytes.Equal(got, payload) {
		t.Error("rendezvous payload corrupted")
	}
	s := w.Endpoints[0].Stats()
	if s.RendezvousSent != 1 {
		t.Errorf("RendezvousSent = %d, want 1", s.RendezvousSent)
	}
	// EPC stripes blocking bulk across all 4 rails.
	if s.StripesSent != 4 {
		t.Errorf("StripesSent = %d, want 4 (EPC blocking → even striping)", s.StripesSent)
	}
}

func TestRendezvousRoundRobinSingleStripe(t *testing.T) {
	const n = 64 * 1024
	w := run(t, spec2x1(4), Options{Policy: core.RoundRobin},
		func(ep *Endpoint) {
			ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, n))
		},
		func(ep *Endpoint) {
			ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, n))
		})
	if s := w.Endpoints[0].Stats(); s.StripesSent != 1 {
		t.Errorf("StripesSent = %d, want 1 (round robin never stripes)", s.StripesSent)
	}
}

func TestUnexpectedEagerMessage(t *testing.T) {
	payload := fill(512, 1)
	got := make([]byte, 512)
	w := run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			ep.PostSend(1, 5, CtxPt2Pt, core.NonBlocking, payload, 512)
		},
		func(ep *Endpoint) {
			// Let the message arrive unexpected, then post the recv.
			ep.Compute(100 * sim.Microsecond)
			ep.Progress()
			if ok, st := ep.Iprobe(0, 5, CtxPt2Pt); !ok || st.Count != 512 {
				t.Errorf("Iprobe = %v, %+v", ok, st)
			}
			req := ep.PostRecv(0, 5, CtxPt2Pt, got, 512)
			if !req.Done() {
				t.Error("recv matching an unexpected eager message should complete synchronously")
			}
		})
	if !bytes.Equal(got, payload) {
		t.Error("unexpected-path payload corrupted")
	}
	if h := w.Endpoints[1].Stats().UnexpectedHits; h != 1 {
		t.Errorf("UnexpectedHits = %d, want 1", h)
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	const n = 128 * 1024
	payload := fill(n, 2)
	got := make([]byte, n)
	run(t, spec2x1(2), Options{Policy: core.EvenStriping},
		func(ep *Endpoint) {
			ep.Wait(ep.PostSend(1, 5, CtxPt2Pt, core.Blocking, payload, n))
		},
		func(ep *Endpoint) {
			ep.Compute(200 * sim.Microsecond) // RTS arrives unexpected
			ep.Progress()
			ep.Wait(ep.PostRecv(0, 5, CtxPt2Pt, got, n))
		})
	if !bytes.Equal(got, payload) {
		t.Error("unexpected rendezvous payload corrupted")
	}
}

func TestWildcards(t *testing.T) {
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			ep.PostSend(1, 99, CtxPt2Pt, core.NonBlocking, []byte{7}, 1)
		},
		func(ep *Endpoint) {
			got := make([]byte, 1)
			st := ep.Wait(ep.PostRecv(AnySource, AnyTag, CtxPt2Pt, got, 1))
			if st.Source != 0 || st.Tag != 99 || got[0] != 7 {
				t.Errorf("wildcard recv: st=%+v got=%v", st, got)
			}
		})
}

func TestContextsDoNotMix(t *testing.T) {
	// A collective-context message must not match a pt2pt receive with the
	// same tag — this separation is what the communication marker uses.
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			ep.PostSend(1, 3, CtxCollective, core.Collective, []byte{1}, 1)
			ep.PostSend(1, 3, CtxPt2Pt, core.NonBlocking, []byte{2}, 1)
		},
		func(ep *Endpoint) {
			got := make([]byte, 1)
			st := ep.Wait(ep.PostRecv(0, 3, CtxPt2Pt, got, 1))
			if got[0] != 2 || st.Err != nil {
				t.Errorf("pt2pt recv got %v (st %+v), want the pt2pt payload 2", got, st)
			}
			st = ep.Wait(ep.PostRecv(0, 3, CtxCollective, got, 1))
			if got[0] != 1 {
				t.Errorf("collective recv got %v", got)
			}
		})
}

func TestNonOvertakingAcrossRails(t *testing.T) {
	// With round robin over 4 rails, consecutive messages ride different
	// QPs and can arrive out of order; sequencing must restore MPI's
	// matching order. Mixed sizes force eager and rendezvous interleaving.
	sizes := []int{512, 64 * 1024, 512, 32 * 1024, 1024, 512}
	run(t, spec2x1(4), Options{Policy: core.RoundRobin},
		func(ep *Endpoint) {
			var reqs []*Request
			for i, n := range sizes {
				reqs = append(reqs, ep.PostSend(1, 8, CtxPt2Pt, core.NonBlocking, fill(n, byte(i)), n))
			}
			ep.WaitAll(reqs)
		},
		func(ep *Endpoint) {
			for i, n := range sizes {
				got := make([]byte, n)
				st := ep.Wait(ep.PostRecv(0, 8, CtxPt2Pt, got, n))
				if st.Count != n {
					t.Errorf("message %d: count %d, want %d", i, st.Count, n)
				}
				if !bytes.Equal(got, fill(n, byte(i))) {
					t.Errorf("message %d: payload mismatch (overtaking?)", i)
				}
			}
		})
}

func TestTruncationError(t *testing.T) {
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, fill(1024, 1), 1024))
		},
		func(ep *Endpoint) {
			got := make([]byte, 100)
			st := ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, got, 100))
			if st.Err != ErrTruncated || st.Count != 100 {
				t.Errorf("status = %+v, want truncation to 100", st)
			}
		})
}

func TestRendezvousTruncation(t *testing.T) {
	const sendN, recvN = 64 * 1024, 20 * 1024
	payload := fill(sendN, 5)
	got := make([]byte, recvN)
	run(t, spec2x1(2), Options{Policy: core.EPC},
		func(ep *Endpoint) {
			ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, payload, sendN))
		},
		func(ep *Endpoint) {
			st := ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, got, recvN))
			if st.Err != ErrTruncated || st.Count != recvN {
				t.Errorf("status = %+v", st)
			}
		})
	if !bytes.Equal(got, payload[:recvN]) {
		t.Error("truncated rendezvous delivered wrong prefix")
	}
}

func TestShmemIntraNode(t *testing.T) {
	spec := topo.Spec{Nodes: 1, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}
	payload := fill(100*1024, 4) // above rendezvous threshold: still shmem single-path
	got := make([]byte, len(payload))
	w := run(t, spec, Options{Policy: core.EPC},
		func(ep *Endpoint) {
			ep.Wait(ep.PostSend(1, 1, CtxPt2Pt, core.Blocking, payload, len(payload)))
		},
		func(ep *Endpoint) {
			st := ep.Wait(ep.PostRecv(0, 1, CtxPt2Pt, got, len(got)))
			if st.Count != len(payload) {
				t.Errorf("count = %d", st.Count)
			}
		})
	if !bytes.Equal(got, payload) {
		t.Error("shmem payload corrupted")
	}
	s := w.Endpoints[0].Stats()
	if s.ShmemSent != 1 || s.EagerSent != 0 || s.RendezvousSent != 0 {
		t.Errorf("stats = %+v: intra-node traffic must not touch the HCA", s)
	}
}

func TestSyntheticPayloads(t *testing.T) {
	for _, n := range []int{100, 64 * 1024} {
		n := n
		run(t, spec2x1(2), Options{Policy: core.EPC},
			func(ep *Endpoint) {
				ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, n))
			},
			func(ep *Endpoint) {
				st := ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, n))
				if st.Count != n || st.Err != nil {
					t.Errorf("n=%d: status = %+v", n, st)
				}
			})
	}
}

func TestManySmallMessagesBackpressure(t *testing.T) {
	// 300 messages through SQDepth=4 exercises the per-QP backlog.
	const count = 300
	run(t, spec2x1(1), Options{Policy: core.Original, SQDepth: 4},
		func(ep *Endpoint) {
			var reqs []*Request
			for i := 0; i < count; i++ {
				reqs = append(reqs, ep.PostSend(1, i, CtxPt2Pt, core.NonBlocking, nil, 256))
			}
			ep.WaitAll(reqs)
		},
		func(ep *Endpoint) {
			for i := 0; i < count; i++ {
				st := ep.Wait(ep.PostRecv(0, i, CtxPt2Pt, nil, 256))
				if st.Tag != i {
					t.Fatalf("message %d has tag %d", i, st.Tag)
				}
			}
		})
}

func TestPingPongBothDirections(t *testing.T) {
	const iters = 20
	run(t, spec2x1(2), Options{Policy: core.EPC},
		func(ep *Endpoint) {
			buf := make([]byte, 1024)
			for i := 0; i < iters; i++ {
				ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, buf, len(buf)))
				ep.Wait(ep.PostRecv(1, 0, CtxPt2Pt, buf, len(buf)))
			}
		},
		func(ep *Endpoint) {
			buf := make([]byte, 1024)
			for i := 0; i < iters; i++ {
				ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, buf, len(buf)))
				ep.Wait(ep.PostSend(0, 0, CtxPt2Pt, core.Blocking, buf, len(buf)))
			}
		})
}

func TestTestDrivesProgress(t *testing.T) {
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			ep.PostSend(1, 0, CtxPt2Pt, core.NonBlocking, []byte{1}, 1)
		},
		func(ep *Endpoint) {
			req := ep.PostRecv(0, 0, CtxPt2Pt, make([]byte, 1), 1)
			for !ep.Test(req) {
				ep.Compute(1 * sim.Microsecond)
			}
		})
}

func TestDeterministicTimeline(t *testing.T) {
	elapsed := func() sim.Time {
		var end sim.Time
		run(t, spec2x1(4), Options{Policy: core.EPC},
			func(ep *Endpoint) {
				var reqs []*Request
				for i := 0; i < 10; i++ {
					reqs = append(reqs, ep.PostSend(1, 0, CtxPt2Pt, core.NonBlocking, nil, 32*1024))
				}
				ep.WaitAll(reqs)
			},
			func(ep *Endpoint) {
				for i := 0; i < 10; i++ {
					ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 32*1024))
				}
				end = ep.Now()
			})
		return end
	}
	a, b := elapsed(), elapsed()
	if a != b || a == 0 {
		t.Errorf("timelines differ: %v vs %v", a, b)
	}
}

// TestBindRailOption: a binding world puts every eager message and every
// rendezvous stripe on rail 0, in both directions.
func TestBindRailOption(t *testing.T) {
	rec := trace.NewRecorder(256)
	const n = 64 << 10
	exchange := func(ep *Endpoint) {
		peer := 1 - ep.Rank
		reqs := []*Request{
			ep.PostSend(peer, 0, CtxPt2Pt, core.NonBlocking, nil, 64),
			ep.PostRecv(peer, 0, CtxPt2Pt, nil, 64),
			ep.PostSend(peer, 1, CtxPt2Pt, core.Blocking, nil, n),
			ep.PostRecv(peer, 1, CtxPt2Pt, nil, n),
		}
		ep.WaitAll(reqs)
	}
	run(t, spec2x1(4), Options{Policy: core.Binding, Trace: rec}, exchange, exchange)
	var eager, stripes [2]int
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindEager:
			eager[e.Rank]++
		case trace.KindStripeWrite:
			stripes[e.Rank]++
		default:
			continue
		}
		if e.Rail != 0 {
			t.Errorf("rank %d %v on rail %d, want 0", e.Rank, e.Kind, e.Rail)
		}
	}
	if eager != [2]int{1, 1} || stripes != [2]int{1, 1} {
		t.Errorf("eager sends %v, stripes %v per rank: want one each", eager, stripes)
	}
}

func TestSpawnHelper(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, model.Default(), spec2x1(1), Options{Policy: core.Original})
	var ranks []int
	w.Spawn("job", func(ep *Endpoint) {
		ranks = append(ranks, ep.Rank)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 2 || ranks[0] == ranks[1] {
		t.Errorf("ranks = %v", ranks)
	}
}

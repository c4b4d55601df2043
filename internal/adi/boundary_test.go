package adi

import (
	"bytes"
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/topo"
)

// Boundary behaviour around the eager/rendezvous threshold and degenerate
// sizes.

func TestThresholdBoundarySizes(t *testing.T) {
	thr := model.Default().RendezvousThreshold
	for _, n := range []int{0, 1, thr - 1, thr, thr + 1} {
		n := n
		payload := fill(max(n, 1), 3)[:n]
		got := make([]byte, max(n, 1))[:n]
		w := run(t, spec2x1(4), Options{Policy: core.EPC},
			func(ep *Endpoint) {
				ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, payload, n))
			},
			func(ep *Endpoint) {
				st := ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, got, n))
				if st.Count != n {
					t.Errorf("n=%d: count %d", n, st.Count)
				}
			})
		if !bytes.Equal(got, payload) {
			t.Errorf("n=%d: payload mismatch", n)
		}
		s := w.Endpoints[0].Stats()
		wantEager, wantRndv := int64(1), int64(0)
		if n >= thr {
			wantEager, wantRndv = 0, 1
		}
		if s.EagerSent != wantEager || s.RendezvousSent != wantRndv {
			t.Errorf("n=%d: eager=%d rndv=%d (threshold %d)", n, s.EagerSent, s.RendezvousSent, thr)
		}
	}
}

func TestZeroByteMessageCompletes(t *testing.T) {
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			st := ep.Wait(ep.PostSend(1, 7, CtxPt2Pt, core.Blocking, nil, 0))
			if st.Count != 0 {
				t.Errorf("send status %+v", st)
			}
		},
		func(ep *Endpoint) {
			st := ep.Wait(ep.PostRecv(0, 7, CtxPt2Pt, nil, 0))
			if st.Count != 0 || st.Source != 0 || st.Tag != 7 {
				t.Errorf("recv status %+v", st)
			}
		})
}

func TestPostSendValidationPanics(t *testing.T) {
	run(t, spec2x1(1), Options{Policy: core.Original},
		func(ep *Endpoint) {
			mustPanic(t, "bad peer", "invalid peer", func() { ep.PostSend(99, 0, CtxPt2Pt, core.Blocking, nil, 1) })
			mustPanic(t, "short buffer", "shorter than count", func() { ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, []byte{1}, 2) })
			mustPanic(t, "bad class", "invalid communication class", func() { ep.PostSend(1, 0, CtxPt2Pt, core.Class(9), nil, 1) })
			mustPanic(t, "short recv buffer", "shorter than count", func() { ep.PostRecv(1, 0, CtxPt2Pt, []byte{1}, 2) })
			mustPanic(t, "negative count", "negative count", func() { ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, -1) })
			mustPanic(t, "negative count with buffer", "negative count", func() { ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, []byte{1, 2}, -5) })
			mustPanic(t, "negative recv count", "negative count", func() { ep.PostRecv(1, 0, CtxPt2Pt, nil, -1) })
			mustPanic(t, "negative put count", "negative count", func() { ep.PutBulk(1, 0, 0, 0, nil, -1, core.Blocking) })
			mustPanic(t, "negative get count", "negative count", func() { ep.GetBulk(1, 0, 0, 0, nil, -1, core.Blocking) })
			mustPanic(t, "negative accumulate count", "negative count", func() { ep.AccumulateSend(1, 0, 0, nil, -1, AccSum) })
		},
		func(ep *Endpoint) {})
}

// mustPanic fails unless f panics with the package's own "adi: " message
// naming want: a runtime error, or a malformed request rejected deeper
// down, does not count as the entry point's validation.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "adi: ") || !strings.Contains(msg, want) {
			t.Errorf("%s: want an adi: panic naming %q, got %q", name, want, msg)
		}
	}()
	f()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---- credit-based flow control ----

func TestCreditStallAndRecovery(t *testing.T) {
	// 300 one-way eager messages against a 64-credit pool: the sender must
	// stall and recover via explicit credit returns (no reverse traffic).
	const count = 300
	w := run(t, spec2x1(2), Options{Policy: core.EPC},
		func(ep *Endpoint) {
			var reqs []*Request
			for i := 0; i < count; i++ {
				reqs = append(reqs, ep.PostSend(1, i, CtxPt2Pt, core.NonBlocking, nil, 512))
			}
			ep.WaitAll(reqs)
		},
		func(ep *Endpoint) {
			for i := 0; i < count; i++ {
				st := ep.Wait(ep.PostRecv(0, i, CtxPt2Pt, nil, 512))
				if st.Tag != i {
					t.Fatalf("message %d out of order (tag %d)", i, st.Tag)
				}
			}
		})
	s := w.Endpoints[0].Stats()
	if s.CreditStalls == 0 {
		t.Error("300 messages against 64 credits: expected stalls")
	}
	if u := w.Endpoints[1].Stats().CreditUpdates; u == 0 {
		t.Error("receiver never returned credits explicitly")
	}
}

func TestCreditsPiggybackOnReverseTraffic(t *testing.T) {
	// A balanced ping-pong returns credits on the reverse messages: no (or
	// almost no) explicit updates needed.
	w := run(t, spec2x1(2), Options{Policy: core.EPC},
		func(ep *Endpoint) {
			for i := 0; i < 200; i++ {
				ep.Wait(ep.PostSend(1, 0, CtxPt2Pt, core.Blocking, nil, 256))
				ep.Wait(ep.PostRecv(1, 0, CtxPt2Pt, nil, 256))
			}
		},
		func(ep *Endpoint) {
			for i := 0; i < 200; i++ {
				ep.Wait(ep.PostRecv(0, 0, CtxPt2Pt, nil, 256))
				ep.Wait(ep.PostSend(0, 0, CtxPt2Pt, core.Blocking, nil, 256))
			}
		})
	for r := 0; r < 2; r++ {
		s := w.Endpoints[r].Stats()
		if s.CreditStalls != 0 {
			t.Errorf("rank %d stalled %d times on balanced traffic", r, s.CreditStalls)
		}
	}
}

func TestCreditsDoNotApplyToShmem(t *testing.T) {
	spec := topo.Spec{Nodes: 1, ProcsPerNode: 2, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}
	w := run(t, spec, Options{Policy: core.Original},
		func(ep *Endpoint) {
			var reqs []*Request
			for i := 0; i < 300; i++ {
				reqs = append(reqs, ep.PostSend(1, i, CtxPt2Pt, core.NonBlocking, nil, 128))
			}
			ep.WaitAll(reqs)
		},
		func(ep *Endpoint) {
			for i := 0; i < 300; i++ {
				ep.Wait(ep.PostRecv(0, i, CtxPt2Pt, nil, 128))
			}
		})
	if s := w.Endpoints[0].Stats(); s.CreditStalls != 0 {
		t.Errorf("shared-memory traffic stalled on credits: %d", s.CreditStalls)
	}
}

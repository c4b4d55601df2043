package ib

import (
	"bytes"
	"testing"

	"ib12x/internal/sim"
)

// TestStaleWriteMissesRecycledRegion: an MR deregistered under an in-flight
// RDMA write hands its struct to the next registration, and the write must
// not land there. Placement resolves the rkey, finds it gone, places
// nothing, and the requester sees StatusRemoteAccessErr.
func TestStaleWriteMissesRecycledRegion(t *testing.T) {
	r := newRig(t)
	old := make([]byte, 64)
	mr := r.realm.RegisterMR(old, len(old))
	src := bytes.Repeat([]byte{0xA5}, 32)
	if err := r.qa.PostSend(SendWR{WRID: 3, Op: OpRDMAWrite, Data: src, N: len(src),
		RKey: mr.RKey, Signaled: true, Payload: true}); err != nil {
		t.Fatal(err)
	}
	staleKey := mr.RKey
	r.realm.DeregisterMR(mr)
	fresh := make([]byte, 64)
	mr2 := r.realm.RegisterMR(fresh, len(fresh))
	if mr2 != mr {
		t.Fatal("RegisterMR did not reuse the deregistered struct; the test proves nothing")
	}
	if mr2.RKey == staleKey {
		t.Fatalf("recycled region kept rkey %d", staleKey)
	}
	r.run(t)
	if !bytes.Equal(fresh, make([]byte, 64)) || !bytes.Equal(old, make([]byte, 64)) {
		t.Errorf("stale write landed: new region %x, old buffer %x", fresh[:8], old[:8])
	}
	e, ok := r.cqa.Poll()
	if !ok || e.WRID != 3 || e.Status != StatusRemoteAccessErr {
		t.Errorf("completion %+v ok=%v, want WRID 3 StatusRemoteAccessErr", e, ok)
	}
	if r.qa.Outstanding() != 0 {
		t.Errorf("outstanding = %d", r.qa.Outstanding())
	}
}

// TestStaleReadAndAtomicPlaceNothing: an RDMA read and an atomic whose
// region goes away in flight touch neither side's memory and complete with
// StatusRemoteAccessErr.
func TestStaleReadAndAtomicPlaceNothing(t *testing.T) {
	r := newRig(t)
	region := bytes.Repeat([]byte{0x3C}, 64)
	mr := r.realm.RegisterMR(region, len(region))
	dst := make([]byte, 32)
	if err := r.qa.PostSend(SendWR{WRID: 1, Op: OpRDMARead, Data: dst, N: 32, RKey: mr.RKey, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.qa.PostSend(SendWR{WRID: 2, Op: OpAtomicFAdd, N: 8, RKey: mr.RKey, CompareAdd: 5, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	r.realm.DeregisterMR(mr)
	r.realm.RegisterMR(make([]byte, 64), 64)
	r.run(t)
	if !bytes.Equal(dst, make([]byte, 32)) {
		t.Errorf("stale read fetched %x", dst[:8])
	}
	if !bytes.Equal(region, bytes.Repeat([]byte{0x3C}, 64)) {
		t.Error("stale atomic modified the old buffer")
	}
	got := map[uint64]Status{}
	for e, ok := r.cqa.Poll(); ok; e, ok = r.cqa.Poll() {
		got[e.WRID] = e.Status
	}
	if len(got) != 2 || got[1] != StatusRemoteAccessErr || got[2] != StatusRemoteAccessErr {
		t.Errorf("completions %v, want both StatusRemoteAccessErr", got)
	}
}

// TestRegisterMRRecycles: a register/deregister cycle allocates nothing
// once the free list holds a struct, and a double deregistration does not
// put one struct on the free list twice.
func TestRegisterMRRecycles(t *testing.T) {
	r := newRig(t)
	b := make([]byte, 16)
	r.realm.DeregisterMR(r.realm.RegisterMR(b, len(b)))
	if n := testing.AllocsPerRun(100, func() {
		r.realm.DeregisterMR(r.realm.RegisterMR(b, len(b)))
	}); n != 0 {
		t.Errorf("register/deregister allocates %.1f per cycle, want 0", n)
	}
	a := r.realm.RegisterMR(b, len(b))
	r.realm.DeregisterMR(a)
	r.realm.DeregisterMR(a)
	x, y := r.realm.RegisterMR(b, len(b)), r.realm.RegisterMR(b, len(b))
	if x == y {
		t.Fatal("double DeregisterMR handed one struct to two registrations")
	}
	if got, ok := r.realm.LookupMR(x.RKey); !ok || got != x {
		t.Errorf("LookupMR(%d) = %p, %v; want %p", x.RKey, got, ok, x)
	}
}

// TestRecvPoolBlankRuns: blank preposts are stored as counted runs, yet a
// mix of blank and buffered receives on an SRQ or a QP's own queue is
// consumed in exact post order, and Posted/PostedRecvs count every WR.
func TestRecvPoolBlankRuns(t *testing.T) {
	r := newRig(t)
	srq := r.realm.NewSRQ()
	qb := r.realm.NewQP(QPConfig{Port: r.pb, CQ: r.cqb, SRQ: srq})
	qa := r.realm.NewQP(QPConfig{Port: r.pa, CQ: r.cqa})
	if err := Connect(qa, qb); err != nil {
		t.Fatal(err)
	}
	if !qa.Connected() || qa.Remote() != qb || qb.IsDown() {
		t.Fatal("fresh connection not wired")
	}
	bufA, bufB := make([]byte, 4), make([]byte, 4)
	srq.PostRecvN(RecvWR{}, 3)
	srq.PostRecv(RecvWR{WRID: 7, Buf: bufA, N: 4})
	srq.PostRecv(RecvWR{})
	srq.PostRecvN(RecvWR{}, 2)
	srq.PostRecvN(RecvWR{}, 0)
	srq.PostRecv(RecvWR{WRID: 9, Buf: bufB, N: 4})
	if srq.Posted() != 8 || srq.pool.runs.Len() != 4 {
		t.Fatalf("Posted %d in %d runs, want 8 in 4 (blank×3, 7, blank×3, 9)", srq.Posted(), srq.pool.runs.Len())
	}
	const msgs = 9
	for i := 0; i < msgs; i++ {
		if err := qa.PostSend(SendWR{Op: OpSend, Data: []byte{byte(i), 1, 2, 3}, N: 4, Ctx: i}); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	if srq.Posted() != 0 || srq.pool.runs.Len() != 0 {
		t.Errorf("after 8 deliveries: Posted %d, %d runs; want 0, 0", srq.Posted(), srq.pool.runs.Len())
	}
	wantWRID := []uint64{0, 0, 0, 7, 0, 0, 0, 9}
	for i := 0; i < msgs-1; i++ {
		e, ok := r.cqb.Poll()
		if !ok || e.Ctx != i || e.WRID != wantWRID[i] {
			t.Fatalf("receive %d: %+v ok=%v, want message %d on WRID %d", i, e, ok, i, wantWRID[i])
		}
	}
	if bufA[0] != 3 || bufB[0] != 7 {
		t.Errorf("buffered receives hold messages %d and %d, want 3 and 7", bufA[0], bufB[0])
	}
	if _, ok := r.cqb.Poll(); ok {
		t.Fatal("the ninth message completed without a posted receive")
	}
	srq.PostRecv(RecvWR{}) // the RNR-parked message takes it at once
	if e, ok := r.cqb.Poll(); !ok || e.Ctx != msgs-1 || srq.Posted() != 0 {
		t.Errorf("late post: %+v ok=%v, Posted %d", e, ok, srq.Posted())
	}

	// A long replenished pool stays one run.
	srq.PostRecvN(RecvWR{}, 128)
	for i := 0; i < 1000; i++ {
		srq.pool.take()
		srq.PostRecv(RecvWR{})
	}
	if srq.Posted() != 128 || srq.pool.runs.Len() != 1 {
		t.Errorf("replenished pool: Posted %d in %d runs, want 128 in 1", srq.Posted(), srq.pool.runs.Len())
	}

	// A QP's own queue keeps the same order and count.
	r.qb.PostRecv(RecvWR{})
	r.qb.PostRecv(RecvWR{WRID: 4, N: 8})
	r.qb.PostRecv(RecvWR{})
	if r.qb.PostedRecvs() != 3 {
		t.Errorf("PostedRecvs = %d, want 3", r.qb.PostedRecvs())
	}
	for _, want := range []uint64{0, 4, 0} {
		if got := r.qb.rq.take(); got.WRID != want {
			t.Errorf("QP pool took WRID %d, want %d", got.WRID, want)
		}
	}
	if r.qb.PostedRecvs() != 0 {
		t.Errorf("PostedRecvs = %d after draining, want 0", r.qb.PostedRecvs())
	}
}

// readDone runs a signaled 64 KB RDMA read on a fresh rig and reports the
// instant it completes, so a failure can be timed into its flight.
func readDone(t *testing.T) sim.Time {
	r := newRig(t)
	mr := r.realm.RegisterMR(nil, 64<<10)
	if err := r.qa.PostSend(SendWR{Op: OpRDMARead, N: 64 << 10, RKey: mr.RKey, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	r.cqa.SetNotify(func() { at = r.eng.Now() })
	r.run(t)
	return at
}

// TestReadFlushedBySetDown: a rail failure flushes an RDMA read whether it
// strikes before the request reaches the responder or while the response
// streams back. Either way no local byte is written and the read completes
// once with StatusFlushErr.
func TestReadFlushedBySetDown(t *testing.T) {
	done := readDone(t)
	for _, tc := range []struct {
		name string
		at   sim.Time
	}{
		{"request in flight", 0},
		{"response in flight", done - sim.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			src := bytes.Repeat([]byte{0x77}, 64<<10)
			mr := r.realm.RegisterMR(src, len(src))
			dst := make([]byte, len(src))
			if err := r.qa.PostSend(SendWR{WRID: 5, Op: OpRDMARead, Data: dst, N: len(dst), RKey: mr.RKey, Signaled: true}); err != nil {
				t.Fatal(err)
			}
			r.eng.Post(tc.at, r.qa.SetDown)
			r.run(t)
			if !bytes.Equal(dst, make([]byte, len(dst))) {
				t.Error("flushed read wrote local memory")
			}
			e, ok := r.cqa.Poll()
			if !ok || e.WRID != 5 || e.Status != StatusFlushErr {
				t.Errorf("completion %+v ok=%v, want WRID 5 StatusFlushErr", e, ok)
			}
			if _, more := r.cqa.Poll(); more || r.qa.Outstanding() != 0 {
				t.Errorf("extra completion %v, outstanding %d", more, r.qa.Outstanding())
			}
		})
	}
}

// TestReadFlipRejectedThenRetried: with verification armed, a read response
// the plan flips is rejected by the requester's HCA (one informational
// StatusIntegrityErr), re-issued, and lands clean; disarmed, the flip
// materializes in the requester's copy only and is echoed on the CQE.
func TestReadFlipRejectedThenRetried(t *testing.T) {
	for _, armed := range []bool{true, false} {
		r := newRig(t)
		if armed {
			r.realm.EnableIntegrity()
		}
		r.pa.FlipEvery = 1
		src := bytes.Repeat([]byte{0x5A, 0xC3}, 64)
		mr := r.realm.RegisterMR(src, len(src))
		dst := make([]byte, len(src))
		if err := r.qa.PostSend(SendWR{WRID: 8, Op: OpRDMARead, Data: dst, N: len(dst), RKey: mr.RKey,
			Signaled: true, Payload: true}); err != nil {
			t.Fatal(err)
		}
		r.run(t)
		var st []Status
		var last CQE
		for e, ok := r.cqa.Poll(); ok; e, ok = r.cqa.Poll() {
			st = append(st, e.Status)
			last = e
		}
		diff := 0
		for i := range dst {
			if dst[i] != src[i] {
				diff++
			}
		}
		if armed {
			if len(st) != 2 || st[0] != StatusIntegrityErr || st[1] != StatusSuccess || diff != 0 {
				t.Errorf("armed: completions %v, %d bytes differ; want integrity NACK then clean success", st, diff)
			}
			continue
		}
		if len(st) != 1 || st[0] != StatusSuccess || diff != 1 || last.FlipMask == 0 {
			t.Errorf("disarmed: completions %v, %d bytes differ, flip mask %#x; want one flipped byte echoed", st, diff, last.FlipMask)
		}
		if !bytes.Equal(src, bytes.Repeat([]byte{0x5A, 0xC3}, 64)) {
			t.Error("disarmed read flip touched the responder's region")
		}
	}
}

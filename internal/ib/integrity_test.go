package ib

import (
	"bytes"
	"testing"

	"ib12x/internal/buf"
)

// payloadWrite posts a signaled payload RDMA write of src to mr at off, as
// rendezvous and one-sided stripes do, and returns the pooled descriptor it
// used.
func (r *rig) payloadWrite(t *testing.T, mr *MR, off int, src []byte) *wrOp {
	t.Helper()
	o := &wrOp{}
	r.realm.ops.Put(o)
	err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, Data: src, N: len(src), RKey: mr.RKey,
		RemoteOff: off, Signaled: true, Payload: true})
	if err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	return o
}

// TestStripeCRCOnlyWhenTainted: under verification, a stripe the plan
// leaves clean carries no checksum, and a tainted one carries the checksum
// of its bytes at post, which the receiving HCA rejects it by before the
// clean retry lands.
func TestStripeCRCOnlyWhenTainted(t *testing.T) {
	r := newRig(t)
	r.realm.EnableIntegrity()
	r.pa.FlipEvery = 2 // the second payload descriptor is flipped
	target := make([]byte, 128)
	mr := r.realm.RegisterMR(target, len(target))
	src := bytes.Repeat([]byte{0x5A, 0xC3}, 32)
	clean := r.payloadWrite(t, mr, 0, src[:32])
	if clean.crc != 0 || clean.flipMask != 0 {
		t.Errorf("untainted stripe: crc %#x, flip mask %#x; want neither", clean.crc, clean.flipMask)
	}
	tainted := r.payloadWrite(t, mr, 32, src[32:])
	if tainted.flipMask == 0 || tainted.crc != buf.Sum(src[32:]) {
		t.Errorf("tainted stripe: crc %#x, flip mask %#x; want %#x and a flip", tainted.crc, tainted.flipMask, buf.Sum(src[32:]))
	}
	r.run(t)
	if !bytes.Equal(target[:64], src) {
		t.Error("stripes did not land intact")
	}
	var st []Status
	for e, ok := r.cqa.Poll(); ok; e, ok = r.cqa.Poll() {
		st = append(st, e.Status)
	}
	if len(st) != 3 || st[0] != StatusSuccess || st[1] != StatusIntegrityErr || st[2] != StatusSuccess {
		t.Errorf("completions %v, want success, one integrity NACK, success", st)
	}
}

// TestTaintSelfCheckSeesMutatedSource: the self-check behind the receiving
// HCA's rejection proves the checksum still describes the bytes on the
// wire. A source mutated between post and delivery is a model bug, and it
// must panic rather than be rejected as a simulated fault.
func TestTaintSelfCheckSeesMutatedSource(t *testing.T) {
	r := newRig(t)
	r.realm.EnableIntegrity()
	r.pa.FlipEvery = 1
	target := make([]byte, 64)
	mr := r.realm.RegisterMR(target, len(target))
	src := bytes.Repeat([]byte{0x11}, 64)
	r.payloadWrite(t, mr, 0, src)
	src[7] ^= 0x80
	defer func() {
		const want = "ib: captured payload no longer matches its capture-time checksum"
		if got := recover(); got != want {
			t.Errorf("Run panicked with %v, want %q", got, want)
		}
	}()
	r.eng.Run()
}

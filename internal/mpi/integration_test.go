package mpi

import (
	"bytes"
	"testing"

	"ib12x/internal/core"
)

// Cross-feature integration: the extensions must compose.

func TestOneSidedOverFatTree(t *testing.T) {
	c := fatCfg(4, 2, 1e9)
	mustRun(t, c, func(cm *Comm) {
		buf := make([]byte, 64*1024)
		w := cm.WinCreate(buf, len(buf))
		w.Fence()
		if cm.Rank() == 0 {
			// Target rank 3 sits across the (slow) spine.
			w.PutN(3, 0, bytes.Repeat([]byte{0xEE}, 64*1024), 64*1024)
		}
		w.Fence()
		if cm.Rank() == 3 && buf[64*1024-1] != 0xEE {
			t.Error("cross-spine put missing")
		}
		if cm.Rank() == 1 {
			old := w.FetchAddInt64(2, 0, 7) // also cross-spine
			_ = old
		}
		w.Fence()
		w.Free()
	})
}

func TestAdaptivePolicyCollectives(t *testing.T) {
	// Adaptive has no marker; collectives must still be correct and not
	// pathologically slow.
	mustRun(t, cfg(2, 2, 4, core.Adaptive), func(cm *Comm) {
		v := []int64{int64(cm.Rank() + 1)}
		cm.AllreduceInt64(v, Sum)
		if v[0] != 10 {
			t.Errorf("allreduce = %d", v[0])
		}
		cm.Alltoall(nil, 32*1024, nil)
	})
}

func TestDatatypesOverSubCommunicator(t *testing.T) {
	mustRun(t, cfg(2, 2, 2, core.EPC), func(cm *Comm) {
		sub := cm.Split(cm.Rank()%2, cm.Rank())
		const rows = 8
		d := Vector(rows, 2, 6)
		buf := make([]byte, d.Extent())
		if sub.Rank() == 0 {
			for b := 0; b < rows; b++ {
				buf[b*6] = byte(b + 1)
				buf[b*6+1] = byte(b + 2)
			}
			sub.SendD(1, 0, buf, d)
		} else {
			sub.RecvD(0, 0, buf, d)
			for b := 0; b < rows; b++ {
				if buf[b*6] != byte(b+1) || buf[b*6+1] != byte(b+2) {
					t.Fatalf("block %d wrong", b)
				}
			}
		}
	})
}

func TestScanOverFatTree(t *testing.T) {
	c := fatCfg(8, 2, 1e9)
	mustRun(t, c, func(cm *Comm) {
		v := []int64{1}
		cm.ScanInt64(v, Sum)
		if v[0] != int64(cm.Rank()+1) {
			t.Errorf("rank %d: scan = %d", cm.Rank(), v[0])
		}
	})
}

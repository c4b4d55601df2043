package mpi

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"ib12x/internal/core"
)

func TestWinPutAcrossNodes(t *testing.T) {
	const n = 128 * 1024
	mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		buf := make([]byte, n)
		w := c.WinCreate(buf, n)
		if c.Rank() == 0 {
			data := bytes.Repeat([]byte{0xA1}, n)
			w.Put(1, 0, data)
		}
		w.Fence()
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				if buf[i] != 0xA1 {
					t.Fatalf("window byte %d = %x after fence", i, buf[i])
				}
			}
		}
		w.Free()
	})
}

func TestWinPutStripesUnderEPC(t *testing.T) {
	const n = 256 * 1024
	rep := mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		w := c.WinCreate(nil, n)
		if c.Rank() == 0 {
			w.PutN(1, 0, nil, n)
		}
		w.Fence()
		w.Free()
	})
	if s := rep.RankStats[0]; s.StripesSent != 4 {
		t.Errorf("StripesSent = %d, want 4 (one-sided puts stripe per policy)", s.StripesSent)
	}
}

func TestWinGetAcrossNodes(t *testing.T) {
	const n = 64 * 1024
	mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		buf := make([]byte, n)
		if c.Rank() == 1 {
			for i := range buf {
				buf[i] = byte(i * 3)
			}
		}
		w := c.WinCreate(buf, n)
		w.Fence() // expose rank 1's contents
		got := make([]byte, n)
		if c.Rank() == 0 {
			w.Get(1, 0, got)
		}
		w.Fence()
		if c.Rank() == 0 {
			for i := range got {
				if got[i] != byte(i*3) {
					t.Fatalf("get byte %d = %x", i, got[i])
				}
			}
		}
		w.Free()
	})
}

func TestWinPutGetOffsets(t *testing.T) {
	mustRun(t, cfg(2, 1, 2, core.EPC), func(c *Comm) {
		buf := make([]byte, 1024)
		w := c.WinCreate(buf, 1024)
		if c.Rank() == 0 {
			w.Put(1, 100, []byte{1, 2, 3, 4})
		}
		w.Fence()
		if c.Rank() == 1 {
			if !bytes.Equal(buf[100:104], []byte{1, 2, 3, 4}) {
				t.Errorf("offset put landed wrong: %v", buf[98:106])
			}
			if buf[99] != 0 || buf[104] != 0 {
				t.Error("put spilled outside its range")
			}
		}
		w.Free()
	})
}

func TestWinAccumulate(t *testing.T) {
	mustRun(t, cfg(2, 2, 2, core.EPC), func(c *Comm) {
		buf := make([]byte, 8*4)
		w := c.WinCreate(buf, len(buf))
		// Every rank adds (rank+1) into rank 0's element 2.
		w.AccumulateInt64(0, 2, []int64{int64(c.Rank() + 1)}, Sum)
		w.Fence()
		if c.Rank() == 0 {
			if got := w.ReadInt64(2); got != 10 { // 1+2+3+4
				t.Errorf("accumulated sum = %d, want 10", got)
			}
		}
		// Max-accumulate into element 0 of rank 1.
		w.AccumulateInt64(1, 0, []int64{int64(c.Rank() * 7)}, Max)
		w.Fence()
		if c.Rank() == 1 {
			if got := w.ReadInt64(0); got != 21 {
				t.Errorf("accumulated max = %d, want 21", got)
			}
		}
		w.Free()
	})
}

func TestWinReplaceOrderedWithAccumulate(t *testing.T) {
	mustRun(t, cfg(2, 1, 2, core.EPC), func(c *Comm) {
		buf := make([]byte, 8)
		w := c.WinCreate(buf, 8)
		if c.Rank() == 0 {
			// Same-source accumulates are applied in issue order.
			w.ReplaceInt64(1, 0, []int64{100})
			w.AccumulateInt64(1, 0, []int64{5}, Sum)
		}
		w.Fence()
		if c.Rank() == 1 {
			if got := w.ReadInt64(0); got != 105 {
				t.Errorf("replace-then-add = %d, want 105", got)
			}
		}
		w.Free()
	})
}

func TestWinIntraNodePutGet(t *testing.T) {
	// Same-node targets use the message-based path over shared memory.
	mustRun(t, Config{Nodes: 1, ProcsPerNode: 2, Policy: core.EPC, QPsPerPort: 2}, func(c *Comm) {
		buf := make([]byte, 4096)
		w := c.WinCreate(buf, len(buf))
		if c.Rank() == 0 {
			w.Put(1, 8, bytes.Repeat([]byte{0x77}, 16))
		}
		w.Fence()
		if c.Rank() == 1 && !bytes.Equal(buf[8:24], bytes.Repeat([]byte{0x77}, 16)) {
			t.Error("intra-node put missing after fence")
		}
		got := make([]byte, 16)
		if c.Rank() == 1 {
			w.Get(0, 0, got)
		}
		w.Fence()
		w.Free()
	})
}

func TestWinSelfOps(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		buf := make([]byte, 64)
		w := c.WinCreate(buf, 64)
		w.Put(c.Rank(), 0, []byte{9, 9})
		w.AccumulateInt64(c.Rank(), 1, []int64{4}, Sum)
		w.Fence()
		if buf[0] != 9 || w.ReadInt64(1) != 4 {
			t.Errorf("self ops: buf[0]=%d elem1=%d", buf[0], w.ReadInt64(1))
		}
		w.Free()
	})
}

func TestWinMultipleEpochs(t *testing.T) {
	mustRun(t, cfg(2, 1, 2, core.EPC), func(c *Comm) {
		buf := make([]byte, 8)
		w := c.WinCreate(buf, 8)
		for epoch := 0; epoch < 5; epoch++ {
			if c.Rank() == 0 {
				w.AccumulateInt64(1, 0, []int64{1}, Sum)
			}
			w.Fence()
			if c.Rank() == 1 {
				if got := w.ReadInt64(0); got != int64(epoch+1) {
					t.Fatalf("epoch %d: sum = %d", epoch, got)
				}
			}
		}
		w.Free()
	})
}

func TestWinBoundsChecked(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		w := c.WinCreate(make([]byte, 64), 64)
		defer w.Free()
		if c.Rank() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-window put must panic")
				}
			}()
			w.Put(1, 60, []byte{1, 2, 3, 4, 5})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad target must panic")
				}
			}()
			w.PutN(9, 0, nil, 8)
		}()
	})
}

func TestWinMultipleWindows(t *testing.T) {
	mustRun(t, cfg(2, 1, 2, core.EPC), func(c *Comm) {
		a := c.WinCreate(make([]byte, 8), 8)
		b := c.WinCreate(make([]byte, 8), 8)
		if c.Rank() == 0 {
			a.AccumulateInt64(1, 0, []int64{11}, Sum)
			b.AccumulateInt64(1, 0, []int64{22}, Sum)
		}
		a.Fence()
		b.Fence()
		if c.Rank() == 1 {
			if a.ReadInt64(0) != 11 || b.ReadInt64(0) != 22 {
				t.Errorf("windows mixed: a=%d b=%d", a.ReadInt64(0), b.ReadInt64(0))
			}
		}
		a.Free()
		b.Free()
	})
}

func TestWinOnSplitCommunicator(t *testing.T) {
	// Windows created on a parent communicator and its Split children must
	// coexist on the shared endpoints.
	mustRun(t, cfg(2, 2, 2, core.EPC), func(c *Comm) {
		parent := c.WinCreate(make([]byte, 8), 8)
		sub := c.Split(c.Rank()%2, c.Rank())
		child := sub.WinCreate(make([]byte, 8), 8)

		// Accumulate into child-rank 0 of my color through the child comm.
		child.AccumulateInt64(0, 0, []int64{int64(c.Rank() + 1)}, Sum)
		child.Fence()
		if sub.Rank() == 0 {
			// Evens: world ranks 0,2 contribute 1+3; odds: 2+4.
			want := int64(4)
			if c.Rank()%2 == 1 {
				want = 6
			}
			if got := child.ReadInt64(0); got != want {
				t.Errorf("world %d: child window = %d, want %d", c.Rank(), got, want)
			}
		}
		// The parent window still works independently.
		parent.AccumulateInt64(0, 0, []int64{1}, Sum)
		parent.Fence()
		if c.Rank() == 0 {
			if got := parent.ReadInt64(0); got != 4 {
				t.Errorf("parent window = %d, want 4", got)
			}
		}
		child.Free()
		parent.Free()
	})
}

// TestWinEpochsMakeNoGarbage runs epochs of every one-sided path (RDMA and
// shared-memory Put and Get, a Put to self, a fetch-and-add) on two nodes of
// two ranks, once for epochs and once for twice as many. The extra epochs
// may allocate one object per extra epoch in all, so garbage per epoch on
// any of the four ranks shows: a Fence keeps its count buffers on the Win
// and every request goes back to its endpoint, where Fence used to allocate
// two buffers per rank and the window kept each bulk request.
func TestWinEpochsMakeNoGarbage(t *testing.T) {
	const epochs, n = 16, 64 * 1024
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(k int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep := mustRun(t, cfg(2, 2, 2, core.EPC), func(c *Comm) {
			w := c.WinCreate(nil, 2*n)
			p, me := c.Size(), c.Rank()
			for e := 0; e < k; e++ {
				w.PutN((me+1)%p, 0, nil, n)
				w.PutN(me, n, nil, 8)
				w.GetN((me+2)%p, n, nil, n)
				w.FetchAddInt64(0, 0, 1)
				w.Fence()
			}
			w.Free()
		})
		runtime.ReadMemStats(&m1)
		if live := rep.World.BufLive(); live != 0 {
			t.Errorf("%d epochs: BufLive() = %d after the run, want 0", k, live)
		}
		return m1.Mallocs - m0.Mallocs
	}
	run(1) // first-use allocations of the test process
	base, twice := run(epochs), run(2*epochs)
	t.Logf("%d epochs: %d allocations, %d epochs: %d", epochs, base, 2*epochs, twice)
	if twice > base+epochs {
		t.Errorf("%d extra epochs cost %d allocations, budget %d", epochs, int64(twice)-int64(base), epochs)
	}
}

package mpi

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/regcache"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// cfg builds a config with qps rails and a policy over nodes×ppn ranks.
func cfg(nodes, ppn, qps int, k core.Kind) Config {
	return Config{Nodes: nodes, ProcsPerNode: ppn, QPsPerPort: qps, Policy: k}
}

func mustRun(t *testing.T, c Config, body func(c *Comm)) *Report {
	t.Helper()
	rep, err := Run(c, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestRunBasics(t *testing.T) {
	seen := make(map[int]bool)
	rep := mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
		if c.Size() != 4 {
			t.Errorf("Size = %d, want 4", c.Size())
		}
		seen[c.Rank()] = true
		c.Compute(5 * sim.Microsecond)
		if c.Wtime() < 4e-6 {
			t.Errorf("Wtime = %g, want ≥ 5us", c.Wtime())
		}
	})
	if len(seen) != 4 {
		t.Errorf("ranks seen: %v", seen)
	}
	if rep.Elapsed < 5*sim.Microsecond {
		t.Errorf("Elapsed = %v", rep.Elapsed)
	}
	if len(rep.RankStats) != 4 || len(rep.BodyEnd) != 4 {
		t.Error("report shape wrong")
	}
}

// TestRunRejectsBadConfig: a shape or option value no layer below accepts
// fails Run before any world is built, with an error naming the field,
// instead of a panic inside the world build, a deadlock, or a silent
// default.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"PortsPerHCA", Config{Ports: 5}},
		{"Policy", Config{Policy: core.Kind(99)}},
		{"EagerProto", Config{EagerProto: adi.EagerProto(9)}},
		{"Rndv", Config{Rndv: adi.RndvProto(9)}},
		{"Integrity", Config{Integrity: adi.IntegrityMode(9)}},
		{"CollAlg", Config{CollAlg: CollAlg(9)}},
		{"Routing", Config{Routing: fabric.Routing(7)}},
		{"Routing", Config{Routing: fabric.Routing(-1)}},
		{"NodesPerSwitch", Config{NodesPerSwitch: -1}},
		{"Dragonfly.Groups", Config{Dragonfly: topo.Dragonfly{Groups: -1}}},
		{"Deadline", Config{Deadline: -1}},
		{"Reliability.CheckInterval", Config{Reliability: &adi.ReliabilityConfig{CheckInterval: -1}}},
		{"Reliability.ProbeBase", Config{Reliability: &adi.ReliabilityConfig{ProbeBase: -1}}},
		{"Reliability.ProbeMax", Config{Reliability: &adi.ReliabilityConfig{ProbeMax: -1}}},
		{"Reliability.Deadline", Config{Reliability: &adi.ReliabilityConfig{Deadline: -1}}},
		{"Reliability.DeadlineScale", Config{Reliability: &adi.ReliabilityConfig{DeadlineScale: -1}}},
		{"Reliability.DeadlineScale", Config{Reliability: &adi.ReliabilityConfig{DeadlineScale: math.NaN()}}},
		{"Reliability.SuspectAfter", Config{Reliability: &adi.ReliabilityConfig{SuspectAfter: -1}}},
		{"Reliability.RetryBase", Config{Reliability: &adi.ReliabilityConfig{RetryBase: -1}}},
		{"Reliability.RetryMax", Config{Reliability: &adi.ReliabilityConfig{RetryMax: -1}}},
		{"RegCache.CapacityBytes", Config{RegCache: &regcache.Config{CapacityBytes: -1}}},
		{"RegCache.CapacityEntries", Config{RegCache: &regcache.Config{CapacityEntries: -1}}},
		{"RegCache.PageBytes", Config{RegCache: &regcache.Config{PageBytes: -1}}},
		{"RegCache.PinPerPage", Config{RegCache: &regcache.Config{PinPerPage: -1}}},
		{"RegCache.PinSyscall", Config{RegCache: &regcache.Config{PinSyscall: -1}}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			ran := false
			_, err := Run(tc.cfg, func(*Comm) { ran = true })
			if err == nil || !strings.Contains(err.Error(), tc.field) || ran {
				t.Errorf("Run = %v (body ran: %v); want an error naming %s before any rank runs", err, ran, tc.field)
			}
		})
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	mustRun(t, cfg(2, 1, 2, core.EPC), func(c *Comm) {
		msg := []byte("ping")
		if c.Rank() == 0 {
			c.Send(1, 1, msg)
			buf := make([]byte, 4)
			st := c.Recv(1, 2, buf)
			if string(buf) != "pong" || st.Source != 1 || st.Tag != 2 {
				t.Errorf("got %q st %+v", buf, st)
			}
		} else {
			buf := make([]byte, 4)
			c.Recv(0, 1, buf)
			if string(buf) != "ping" {
				t.Errorf("got %q", buf)
			}
			c.Send(0, 2, []byte("pong"))
		}
	})
}

func TestIsendIrecvWindow(t *testing.T) {
	const window = 16
	mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < window; i++ {
				reqs = append(reqs, c.IsendN(1, i, nil, 2048))
			}
			c.Waitall(reqs)
		} else {
			var reqs []*Request
			for i := 0; i < window; i++ {
				reqs = append(reqs, c.IrecvN(0, i, nil, 2048))
			}
			c.Waitall(reqs)
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		peer := 1 - c.Rank()
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st := c.Sendrecv(peer, 0, out, peer, 0, in)
		if in[0] != byte(peer) || st.Source != peer {
			t.Errorf("rank %d: in=%v st=%+v", c.Rank(), in, st)
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	var after [4]sim.Time
	mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
		// Rank 0 arrives late; everyone leaves after it arrives.
		if c.Rank() == 0 {
			c.Compute(1 * sim.Millisecond)
		}
		c.Barrier()
		after[c.Rank()] = c.Time()
	})
	for r, tm := range after {
		if tm < 1*sim.Millisecond {
			t.Errorf("rank %d left the barrier at %v, before rank 0 arrived", r, tm)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, nranks := range []struct{ nodes, ppn int }{{2, 1}, {2, 2}, {3, 1}} {
		for _, n := range []int{1, 1024, 64 * 1024} {
			for root := 0; root < nranks.nodes*nranks.ppn; root++ {
				root, n := root, n
				mustRun(t, cfg(nranks.nodes, nranks.ppn, 2, core.EPC), func(c *Comm) {
					buf := make([]byte, n)
					if c.Rank() == root {
						for i := range buf {
							buf[i] = byte(root + i)
						}
					}
					c.Bcast(root, buf)
					for i := range buf {
						if buf[i] != byte(root+i) {
							t.Fatalf("rank %d: bcast(root=%d,n=%d) corrupted at %d", c.Rank(), root, n, i)
						}
					}
				})
			}
		}
	}
}

func TestAllreduceInt64AllOps(t *testing.T) {
	// 6 ranks exercises the non-power-of-two fold.
	mustRun(t, cfg(3, 2, 1, core.Original), func(c *Comm) {
		r := int64(c.Rank())
		sum := []int64{r, 10 * r}
		c.AllreduceInt64(sum, Sum)
		if sum[0] != 15 || sum[1] != 150 { // 0+1+..+5
			t.Errorf("rank %d: sum = %v", c.Rank(), sum)
		}
		mx := []int64{r}
		c.AllreduceInt64(mx, Max)
		if mx[0] != 5 {
			t.Errorf("max = %v", mx)
		}
		mn := []int64{r}
		c.AllreduceInt64(mn, Min)
		if mn[0] != 0 {
			t.Errorf("min = %v", mn)
		}
	})
}

func TestAllreduceFloat64(t *testing.T) {
	mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
		v := []float64{float64(c.Rank()) + 0.5}
		c.AllreduceFloat64(v, Sum)
		if v[0] != 8 { // 0.5+1.5+2.5+3.5
			t.Errorf("sum = %v", v)
		}
		w := []float64{float64(c.Rank())}
		c.AllreduceFloat64(w, Max)
		if w[0] != 3 {
			t.Errorf("max = %v", w)
		}
	})
}

func TestReduceToEachRoot(t *testing.T) {
	for root := 0; root < 4; root++ {
		root := root
		mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
			v := []int64{int64(c.Rank() + 1)}
			c.ReduceInt64(root, v, Sum)
			if c.Rank() == root && v[0] != 10 {
				t.Errorf("root %d: sum = %d, want 10", root, v[0])
			}
			f := []float64{float64(c.Rank())}
			c.ReduceFloat64(root, f, Min)
			if c.Rank() == root && f[0] != 0 {
				t.Errorf("root %d: min = %g", root, f[0])
			}
		})
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 256
	mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
		p, rank := c.Size(), c.Rank()
		// Gather: rank r contributes a block of r's.
		send := bytes.Repeat([]byte{byte(rank + 1)}, n)
		var recv []byte
		if rank == 2 {
			recv = make([]byte, p*n)
		}
		c.Gather(2, send, n, recv)
		if rank == 2 {
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if recv[r*n+i] != byte(r+1) {
						t.Fatalf("gather block %d wrong", r)
					}
				}
			}
		}
		// Scatter back out from rank 1.
		var src []byte
		if rank == 1 {
			src = make([]byte, p*n)
			for r := 0; r < p; r++ {
				copy(src[r*n:(r+1)*n], bytes.Repeat([]byte{byte(0x40 + r)}, n))
			}
		}
		got := make([]byte, n)
		c.Scatter(1, src, n, got)
		for i := 0; i < n; i++ {
			if got[i] != byte(0x40+rank) {
				t.Fatalf("scatter rank %d wrong at %d: %x", rank, i, got[i])
			}
		}
	})
}

func TestAllgatherRing(t *testing.T) {
	const n = 512
	for _, shape := range []struct{ nodes, ppn int }{{2, 2}, {3, 1}, {5, 1}} {
		shape := shape
		mustRun(t, cfg(shape.nodes, shape.ppn, 2, core.EPC), func(c *Comm) {
			p, rank := c.Size(), c.Rank()
			send := bytes.Repeat([]byte{byte(rank * 3)}, n)
			recv := make([]byte, p*n)
			c.Allgather(send, n, recv)
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if recv[r*n+i] != byte(r*3) {
						t.Fatalf("p=%d rank %d: allgather block %d wrong", p, rank, r)
					}
				}
			}
		})
	}
}

// alltoallPattern fills rank r's block to peer d with a value derived from
// (r, d) so the transpose property is checkable.
func alltoallValue(src, dst int) byte { return byte(17*src + 3*dst + 1) }

func TestAlltoallTranspose(t *testing.T) {
	const n = 128
	for _, shape := range []struct{ nodes, ppn int }{{2, 1}, {2, 4}, {3, 1}} {
		shape := shape
		mustRun(t, cfg(shape.nodes, shape.ppn, 4, core.EPC), func(c *Comm) {
			p, rank := c.Size(), c.Rank()
			send := make([]byte, p*n)
			for d := 0; d < p; d++ {
				copy(send[d*n:(d+1)*n], bytes.Repeat([]byte{alltoallValue(rank, d)}, n))
			}
			recv := make([]byte, p*n)
			c.Alltoall(send, n, recv)
			for s := 0; s < p; s++ {
				want := alltoallValue(s, rank)
				for i := 0; i < n; i++ {
					if recv[s*n+i] != want {
						t.Fatalf("rank %d: block from %d has %x, want %x", rank, s, recv[s*n+i], want)
					}
				}
			}
		})
	}
}

func TestAlltoallvVariableCounts(t *testing.T) {
	mustRun(t, cfg(2, 2, 2, core.EPC), func(c *Comm) {
		p, rank := c.Size(), c.Rank()
		// Rank r sends (d+1)*100 bytes to each peer d.
		scounts := make([]int, p)
		sdispls := make([]int, p)
		total := 0
		for d := 0; d < p; d++ {
			scounts[d] = (d + 1) * 100
			sdispls[d] = total
			total += scounts[d]
		}
		send := make([]byte, total)
		for d := 0; d < p; d++ {
			copy(send[sdispls[d]:sdispls[d]+scounts[d]], bytes.Repeat([]byte{alltoallValue(rank, d)}, scounts[d]))
		}
		// Everyone receives (rank+1)*100 from each source.
		rcounts := make([]int, p)
		rdispls := make([]int, p)
		rtotal := 0
		for s := 0; s < p; s++ {
			rcounts[s] = (rank + 1) * 100
			rdispls[s] = rtotal
			rtotal += rcounts[s]
		}
		recv := make([]byte, rtotal)
		c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls)
		for s := 0; s < p; s++ {
			want := alltoallValue(s, rank)
			for i := 0; i < rcounts[s]; i++ {
				if recv[rdispls[s]+i] != want {
					t.Fatalf("rank %d: from %d got %x, want %x", rank, s, recv[rdispls[s]+i], want)
				}
			}
		}
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const n = 64
	mustRun(t, cfg(2, 2, 1, core.Original), func(c *Comm) {
		p, rank := c.Size(), c.Rank()
		buf := make([]byte, p*n)
		for i := range buf {
			buf[i] = 1 // every rank contributes 1s; sum = p
		}
		recv := make([]byte, n)
		c.ReduceScatterBlock(buf, n, recv, func(dst, src []byte) {
			for i := range dst {
				dst[i] += src[i]
			}
		})
		for i := 0; i < n; i++ {
			if recv[i] != byte(p) {
				t.Fatalf("rank %d: recv[%d] = %d, want %d", rank, i, recv[i], p)
			}
		}
	})
}

func TestCollectiveMarkerStripes(t *testing.T) {
	// A large Alltoall under EPC must stripe its transfers (collective →
	// striping) even though every call is non-blocking.
	const n = 64 * 1024
	rep := mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		c.Alltoall(nil, n, nil)
	})
	s := rep.RankStats[0]
	if s.RendezvousSent < 1 {
		t.Fatalf("stats = %+v: expected rendezvous traffic", s)
	}
	if s.StripesSent < 4*s.RendezvousSent {
		t.Errorf("StripesSent = %d for %d rendezvous: collective traffic did not stripe", s.StripesSent, s.RendezvousSent)
	}
}

func TestNonBlockingDoesNotStripeUnderEPC(t *testing.T) {
	const n = 64 * 1024
	rep := mustRun(t, cfg(2, 1, 4, core.EPC), func(c *Comm) {
		if c.Rank() == 0 {
			c.Wait(c.IsendN(1, 0, nil, n))
		} else {
			c.Wait(c.IrecvN(0, 0, nil, n))
		}
	})
	s := rep.RankStats[0]
	if s.RendezvousSent != 1 || s.StripesSent != 1 {
		t.Errorf("stats = %+v: EPC must not stripe non-blocking pt2pt", s)
	}
}

func TestIprobeAndProgress(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []byte{1, 2, 3})
		} else {
			c.Compute(200 * sim.Microsecond)
			c.Progress()
			ok, st := c.Iprobe(0, 9)
			if !ok || st.Count != 3 {
				t.Errorf("Iprobe = %v %+v", ok, st)
			}
			buf := make([]byte, 3)
			c.Recv(0, 9, buf)
		}
	})
}

func TestDeterministicElapsed(t *testing.T) {
	runOnce := func() sim.Time {
		rep := mustRun(t, cfg(2, 4, 4, core.EPC), func(c *Comm) {
			c.Alltoall(nil, 32*1024, nil)
			v := []int64{int64(c.Rank())}
			c.AllreduceInt64(v, Sum)
		})
		return rep.Elapsed
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("elapsed differs: %v vs %v", a, b)
	}
}

func TestSendToSelf(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		// Recv posted first, send matches it.
		buf := make([]byte, 8)
		r := c.Irecv(c.Rank(), 5, buf)
		c.Send(c.Rank(), 5, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		st := c.Wait(r)
		if st.Source != c.Rank() || st.Count != 8 || buf[7] != 8 {
			t.Errorf("self recv: st=%+v buf=%v", st, buf)
		}
		// Send first (buffered), recv later.
		c.SendN(c.Rank(), 6, []byte{42}, 1)
		got := make([]byte, 1)
		c.Recv(c.Rank(), 6, got)
		if got[0] != 42 {
			t.Errorf("buffered self send lost: %v", got)
		}
		// Large self-send is buffered too (self device semantics).
		big := make([]byte, 64*1024)
		big[100] = 9
		c.Send(c.Rank(), 7, big)
		got2 := make([]byte, 64*1024)
		c.Recv(c.Rank(), 7, got2)
		if got2[100] != 9 {
			t.Error("large self send corrupted")
		}
	})
}

func TestProbeBlocks(t *testing.T) {
	mustRun(t, cfg(2, 1, 1, core.Original), func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(50 * sim.Microsecond)
			c.Send(1, 9, []byte{1, 2, 3})
		} else {
			st := c.Probe(0, 9)
			if st.Count != 3 || st.Source != 0 {
				t.Errorf("Probe status = %+v", st)
			}
			// The message is still there to receive.
			buf := make([]byte, 3)
			c.Recv(0, 9, buf)
			if buf[2] != 3 {
				t.Error("payload consumed by Probe")
			}
		}
	})
}

// Failure injection: a lossy link retransmits but never corrupts. Chunk
// loss is a chaos plan (chaos.LegacyEveryN), so every test that needs one
// lives here in package mpi_test: the chaos package imports mpi.
package mpi_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// faultCfg mirrors the in-package test helper: a two-level cluster with the
// given shape and policy.
func faultCfg(nodes, ppn, qps int, kind core.Kind) mpi.Config {
	return mpi.Config{Nodes: nodes, ProcsPerNode: ppn, QPsPerPort: qps, Policy: kind}
}

func faultRun(t *testing.T, cfg mpi.Config, body func(c *mpi.Comm)) *mpi.Report {
	t.Helper()
	rep, err := mpi.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFaultyLinkDeliversCorrectPayloads(t *testing.T) {
	const n = 256 * 1024
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	got := make([]byte, n)
	cfg := faultCfg(2, 1, 4, core.EPC)
	cfg.Chaos = chaos.LegacyEveryN(5)
	rep := faultRun(t, cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, payload)
		} else {
			c.Recv(0, 0, got)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted under fault injection")
	}
	var retr int64
	for _, node := range rep.World.Cluster.Nodes {
		for _, port := range node.Ports() {
			retr += port.Retransmits
		}
	}
	if retr == 0 {
		t.Error("no retransmissions recorded on a lossy fabric")
	}
}

func TestFaultyLinkSlowsButCompletes(t *testing.T) {
	run := func(fault int64) float64 {
		c := faultCfg(2, 1, 4, core.EPC)
		if fault > 0 {
			c.Chaos = chaos.LegacyEveryN(fault)
		}
		rep := faultRun(t, c, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				for i := 0; i < 8; i++ {
					c.SendN(1, i, nil, 128*1024)
				}
			} else {
				for i := 0; i < 8; i++ {
					c.RecvN(0, i, nil, 128*1024)
				}
			}
		})
		return rep.Elapsed.Seconds()
	}
	clean := run(0)
	faulty := run(6)
	if faulty <= clean {
		t.Errorf("faulty fabric (%.6fs) not slower than clean (%.6fs)", faulty, clean)
	}
}

func TestFaultyCollectivesCorrect(t *testing.T) {
	c := faultCfg(2, 2, 2, core.EPC)
	c.Chaos = chaos.LegacyEveryN(7)
	faultRun(t, c, func(c *mpi.Comm) {
		v := []int64{int64(c.Rank() + 1)}
		c.AllreduceInt64(v, mpi.Sum)
		if v[0] != 10 {
			t.Errorf("allreduce under faults = %d, want 10", v[0])
		}
		buf := make([]byte, 64*1024)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		c.Bcast(0, buf)
		for i := range buf {
			if buf[i] != byte(i) {
				t.Fatalf("bcast corrupted at %d under faults", i)
			}
		}
	})
}

func TestRGETUnderFaults(t *testing.T) {
	c := faultCfg(2, 1, 4, core.EPC)
	c.Rndv = adi.RndvRead
	c.Chaos = chaos.LegacyEveryN(6)
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	got := make([]byte, len(payload))
	faultRun(t, c, func(cm *mpi.Comm) {
		if cm.Rank() == 0 {
			cm.Send(1, 0, payload)
		} else {
			cm.Recv(0, 0, got)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Error("RGET payload corrupted under faults")
	}
}

func TestWindowsUnderFaultInjection(t *testing.T) {
	c := faultCfg(2, 1, 4, core.EPC)
	c.Chaos = chaos.LegacyEveryN(5)
	faultRun(t, c, func(cm *mpi.Comm) {
		buf := make([]byte, 128*1024)
		w := cm.WinCreate(buf, len(buf))
		w.Fence()
		if cm.Rank() == 0 {
			w.Put(1, 0, bytes.Repeat([]byte{0xAB}, 128*1024))
			// Reading the first 8 bytes after the put is racy within an
			// epoch; just exercise the atomic path under faults.
			w.FetchAddInt64(1, 0, 0)
		}
		w.Fence()
		if cm.Rank() == 1 {
			for i := 0; i < len(buf); i += 4096 {
				if buf[i] != 0xAB {
					t.Fatalf("faulty put corrupted at %d", i)
				}
			}
		}
		w.Free()
	})
}

func TestRandomTrafficUnderFaults(t *testing.T) {
	sizes := mpi.GenTrafficSizes(rand.New(rand.NewSource(777)), 10)
	c := faultCfg(2, 1, 4, core.EPC)
	c.Chaos = chaos.LegacyEveryN(9)
	faultRun(t, c, func(cm *mpi.Comm) {
		if cm.Rank() == 0 {
			var reqs []*mpi.Request
			for i, n := range sizes {
				reqs = append(reqs, cm.Isend(1, 0, mpi.PayloadFor(i, n)))
			}
			cm.Waitall(reqs)
		} else {
			for i, n := range sizes {
				buf := make([]byte, n)
				cm.Recv(0, 0, buf)
				if !bytes.Equal(buf, mpi.PayloadFor(i, n)) {
					t.Errorf("msg %d corrupted under faults", i)
				}
			}
		}
	})
}

// TestRailDeathArmsReliability: a chaos plan that kills a rail arms the
// self-healing layer itself when the config leaves Reliability nil. The
// endpoints quarantine the dead rail on their own evidence, every payload
// arrives intact on the survivors, and no payload block leaks.
func TestRailDeathArmsReliability(t *testing.T) {
	const n, msgs = 256 * 1024, 8
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c := faultCfg(2, 1, 4, core.EvenStriping)
	c.Chaos = chaos.RailDeath(20*sim.Microsecond, 1, 2)
	rep := faultRun(t, c, func(cm *mpi.Comm) {
		got := make([]byte, n)
		for i := 0; i < msgs; i++ {
			if cm.Rank() == 0 {
				cm.Send(1, i, payload)
				continue
			}
			cm.Recv(0, i, got)
			if !bytes.Equal(got, payload) {
				t.Errorf("message %d corrupted after the rail death", i)
			}
		}
	})
	if rep.World.Reliability() == nil {
		t.Fatal("rail-death plan ran without the reliability layer")
	}
	var quarantines int64
	for _, st := range rep.RankStats {
		quarantines += st.RailQuarantines
	}
	if quarantines == 0 {
		t.Error("dead rail never quarantined")
	}
	if live := rep.World.BufLive(); live != 0 {
		t.Errorf("BufLive = %d after the run, want 0", live)
	}
}

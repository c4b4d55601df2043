package chaos

import (
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/trace"
)

// healthTimeline runs a seeded ping-pong workload under a rail flap with the
// reliability layer armed and returns the recorded health-transition events.
func healthTimeline(t *testing.T, seed int64) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder(1 << 16)
	cfg := mpi.Config{
		Nodes:      2,
		QPsPerPort: 2,
		Policy:     core.RoundRobin,
		Trace:      rec,
		Chaos:      RailFlap(80*sim.Microsecond, 400*sim.Microsecond, 1, 1),
		Reliability: &adi.ReliabilityConfig{
			Seed:          seed,
			Deadline:      60 * sim.Microsecond,
			CheckInterval: 15 * sim.Microsecond,
			RetryBase:     2 * sim.Microsecond,
			ProbeBase:     10 * sim.Microsecond,
			ProbeMax:      40 * sim.Microsecond,
		},
		Deadline: 50 * sim.Millisecond,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		buf := make([]byte, 4<<10)
		for i := 0; i < 120; i++ {
			if c.Rank() == 0 {
				c.Send(1, 5, buf)
			} else {
				c.Recv(0, 5, buf)
			}
			c.Compute(3 * sim.Microsecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindRailSuspect, trace.KindRailQuarantine, trace.KindRailProbe, trace.KindRailReintegrate:
			out = append(out, e)
		}
	}
	return out
}

// TestHealthTimelineReplay pins the reliability layer's determinism: two runs
// with the same seed must log the exact same health-transition timeline —
// same virtual times, same kinds, same ranks, same rails.
func TestHealthTimelineReplay(t *testing.T) {
	a := healthTimeline(t, 11)
	b := healthTimeline(t, 11)
	if len(a) == 0 {
		t.Fatal("rail flap produced no health transitions; the layer is not engaging")
	}
	if len(a) != len(b) {
		t.Fatalf("replay event count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed shifts probe/backoff jitter, so the timeline moves.
	c := healthTimeline(t, 12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seed 11 and 12 produced identical timelines; jitter is not seeded")
	}
}

// TestFalseSuspectRecovers forces a false positive: a long send-engine stall
// with an aggressively short deadline trips suspect -> quarantine even though
// the rail is physically fine. The layer must recover by itself (the first
// probe completes once the stall lifts), must not retransmit anything (no WR
// ever flushed), and must leave the user-visible answer untouched.
func TestFalseSuspectRecovers(t *testing.T) {
	res := conformant(t, OracleConfig{
		Seed:   oracleSeed,
		Policy: core.EvenStriping,
		Plan:   StalledEngine(150*sim.Microsecond, 200*sim.Microsecond, 0, 0),
		Reliability: &adi.ReliabilityConfig{
			Seed:          oracleSeed,
			Deadline:      30 * sim.Microsecond,
			DeadlineScale: 1,
			CheckInterval: 10 * sim.Microsecond,
		},
	})
	if res.RailSuspects == 0 || res.RailQuarantines == 0 {
		t.Errorf("stall never tripped the deadline: suspects=%d quarantines=%d",
			res.RailSuspects, res.RailQuarantines)
	}
	if res.RailReintegrations == 0 {
		t.Error("falsely quarantined rail never reintegrated")
	}
	if res.RailRetransmits != 0 {
		t.Errorf("false quarantine retransmitted %d WRs; nothing was ever flushed", res.RailRetransmits)
	}
}

// TestCorruptionFalseSuspectRecovers mirrors the integrity suite's
// corruption-strike arc through the full health state machine: a transient
// flipper burst NACKs enough payloads to strike its rails into suspect and
// on to quarantine, the burst disarms, and the first probe — probes are
// control traffic, exempt from payload corruption — finds the rail
// physically fine and reintegrates it. The answer never moves: every NACKed
// payload was retransmitted clean by the HCA before the strike was even
// booked.
func TestCorruptionFalseSuspectRecovers(t *testing.T) {
	transient := Merge("transient-flipper",
		BitFlipPlan(20*sim.Microsecond, -1, 3, 0x5EED),
		&Plan{Events: []Event{{At: 500 * sim.Microsecond, Kind: BitFlipEveryN, Node: -1, Port: -1, N: 0}}})
	res := conformant(t, OracleConfig{
		Seed: oracleSeed, Policy: core.RoundRobin, Plan: transient,
		Integrity: adi.IntegrityVerify,
		// One strike quarantines: the arc under test is a single flip driving
		// suspect -> quarantine -> probe -> reintegrate end to end.
		Reliability: &adi.ReliabilityConfig{Seed: oracleSeed, SuspectAfter: 1},
	})
	if res.IntegrityNacks == 0 {
		t.Fatal("flipper burst never NACKed; injection not engaging")
	}
	if res.RailSuspects == 0 {
		t.Error("corruption strikes never turned a rail suspect")
	}
	if res.RailQuarantines == 0 {
		t.Error("repeated corruption strikes never quarantined a rail")
	}
	if res.RailReintegrations == 0 {
		t.Error("quarantined rail never reintegrated after the burst disarmed")
	}
}

// TestPersistentFlipperQuarantined pins the complementary arc: a rail
// population that never stops flipping keeps striking into quarantine, and
// however often the (corruption-exempt) probes reintegrate it, the answer
// still matches the fault-free baseline — integrity turns a corrupting
// fabric into a slow fabric, never a wrong one.
func TestPersistentFlipperQuarantined(t *testing.T) {
	res := conformant(t, OracleConfig{
		Seed: oracleSeed, Policy: core.EvenStriping,
		Plan:        BitFlipPlan(10*sim.Microsecond, -1, 3, 0xBADF),
		Integrity:   adi.IntegrityVerify,
		Reliability: &adi.ReliabilityConfig{Seed: oracleSeed, SuspectAfter: 2},
	})
	if res.RailQuarantines == 0 {
		t.Errorf("persistent flipper never quarantined a rail (nacks=%d suspects=%d)",
			res.IntegrityNacks, res.RailSuspects)
	}
	if res.IntegrityNacks < res.RailQuarantines {
		t.Errorf("quarantines (%d) outnumber NACKs (%d); strikes are being double-booked",
			res.RailQuarantines, res.IntegrityNacks)
	}
}

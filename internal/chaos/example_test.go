package chaos_test

import (
	"fmt"

	"ib12x/internal/chaos"
	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// Loss on the wire: every N-th chunk is corrupted and pays the Reliable
// Connection retransmission timeout. Sixteen 1 MB messages still arrive
// intact at every loss rate; only the bandwidth pays.
func ExampleLegacyEveryN() {
	const n = 1 << 20
	const msgs = 16
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, faultEvery := range []int64{0, 64, 16, 4} {
		cfg := mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC}
		if faultEvery > 0 {
			cfg.Chaos = chaos.LegacyEveryN(faultEvery)
		}
		var elapsed sim.Time
		rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
			buf := make([]byte, n)
			if c.Rank() == 0 {
				t0 := c.Time()
				for i := 0; i < msgs; i++ {
					c.Send(1, i, payload)
				}
				c.RecvN(1, 99, nil, 1)
				elapsed = c.Time() - t0
			} else {
				for i := 0; i < msgs; i++ {
					c.Recv(0, i, buf)
					for k := 0; k < n; k += 4096 {
						if buf[k] != byte(k) {
							panic(fmt.Sprintf("corrupted payload at message %d byte %d", i, k))
						}
					}
				}
				c.SendN(0, 99, nil, 1)
			}
		})
		if err != nil {
			panic(err)
		}
		var retr int64
		for _, node := range rep.World.Cluster.Nodes {
			for _, port := range node.Ports() {
				retr += port.Retransmits
			}
		}
		label := "error-free"
		if faultEvery > 0 {
			label = fmt.Sprintf("1-in-%d chunks lost", faultEvery)
		}
		fmt.Printf("%-22s %6.0f MB/s  (%3d retransmits, data verified)\n",
			label, float64(msgs*n)/elapsed.Seconds()/1e6, retr)
	}
	// Output:
	// error-free               2483 MB/s  (  0 retransmits, data verified)
	// 1-in-64 chunks lost      1588 MB/s  ( 16 retransmits, data verified)
	// 1-in-16 chunks lost      1355 MB/s  ( 67 retransmits, data verified)
	// 1-in-4 chunks lost        981 MB/s  (268 retransmits, data verified)
}

// A rail dies under a striped bulk transfer and comes back later, while a
// port runs degraded. The plan's rail events arm the reliability layer with
// its default config: the flushed stripe quarantines the rail and is
// retransmitted onto a survivor, the policy re-plans around the hole, a
// probe reintegrates the rail, and every payload still arrives intact.
func ExampleRailFlap() {
	const n = 1 << 20
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(3 * i)
	}
	got := make([]byte, n)

	plan := chaos.Merge("flap-under-load",
		chaos.RailFlap(20*sim.Microsecond, 400*sim.Microsecond, 1, 2),
		chaos.DegradedLink(100*sim.Microsecond, 300*sim.Microsecond, 0, 0, 0.5, sim.Microsecond),
	)
	cfg := mpi.Config{
		Nodes: 2, QPsPerPort: 4, Policy: core.EvenStriping,
		Chaos:    plan,
		Deadline: sim.Second,
	}
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 8; i++ {
				c.Send(1, i, payload)
			}
		} else {
			for i := 0; i < 8; i++ {
				c.Recv(0, i, got)
				for k := range got {
					if got[k] != byte(3*k) {
						panic(fmt.Sprintf("message %d corrupted at byte %d", i, k))
					}
				}
			}
		}
	})
	if err != nil {
		panic(err)
	}
	var railRetr int64
	for _, st := range rep.RankStats {
		railRetr += st.RailRetransmits
	}
	fmt.Printf("rail flap under 8 MB of striped traffic (%s):\n", plan.Name)
	fmt.Printf("  completed in %v, %d stripes rerouted onto survivors, all payloads verified\n",
		rep.Elapsed, railRetr)
	// Output:
	// rail flap under 8 MB of striped traffic (flap-under-load):
	//   completed in 3.744ms, 1 stripes rerouted onto survivors, all payloads verified
}

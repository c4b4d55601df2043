package mpi_test

import (
	"encoding/binary"
	"fmt"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// The smallest complete job: two ranks on two nodes exchange a greeting
// over the simulated 12x fabric.
func ExampleRun() {
	cfg := mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("hello over 12x"))
		} else {
			buf := make([]byte, 14)
			st := c.Recv(0, 0, buf)
			fmt.Printf("rank %d got %q from rank %d\n", c.Rank(), buf, st.Source)
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: rank 1 got "hello over 12x" from rank 0
}

// Collectives carry the communication marker invisibly: EPC stripes their
// transfers even though they are non-blocking underneath.
func ExampleComm_AllreduceInt64() {
	cfg := mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		v := []int64{int64(c.Rank() + 1)}
		c.AllreduceInt64(v, mpi.Sum)
		if c.Rank() == 0 {
			fmt.Println("sum over 4 ranks:", v[0])
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: sum over 4 ranks: 10
}

// One-sided communication: every rank accumulates into rank 0's window;
// the fence closes the epoch.
func ExampleWin() {
	cfg := mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 2, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		w := c.WinCreate(make([]byte, 8), 8)
		w.AccumulateInt64(0, 0, []int64{int64(c.Rank())}, mpi.Sum)
		w.Fence()
		if c.Rank() == 0 {
			fmt.Println("accumulated:", w.ReadInt64(0))
		}
		w.Free()
	})
	if err != nil {
		panic(err)
	}
	// Output: accumulated: 6
}

// Virtual time is the measurement: a 1 MB blocking send under EPC stripes
// across all four engines and lands in the sub-millisecond range the
// hardware calibration dictates.
func ExampleComm_Wtime() {
	cfg := mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			t0 := c.Wtime()
			c.SendN(1, 0, nil, 1<<20)
			fmt.Printf("1MB sender-side completion in under 1ms: %v\n", c.Wtime()-t0 < 1e-3)
		} else {
			c.RecvN(0, 0, nil, 1<<20)
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: 1MB sender-side completion in under 1ms: true
}

// A 2-D halo exchange, the pattern the paper's conclusions leave as future
// work: four single-process nodes form a 2x2 torus, and every iteration
// each rank swaps 512 KB faces with its neighbours by blocking Sendrecv,
// then computes for 400 us. Every exchange crosses a 12x link with one
// connection active at a time, the regime where striping the blocking
// transfer (even striping, EPC) pulls ahead of one rail per message.
func Example_stencil() {
	const (
		gridX, gridY = 2, 2
		haloBytes    = 512 << 10
		iterations   = 30
		computeTime  = 400 * sim.Microsecond
	)
	for _, setup := range []struct {
		policy core.Kind
		qps    int
	}{
		{core.Original, 1},
		{core.RoundRobin, 4},
		{core.EvenStriping, 4},
		{core.EPC, 4},
	} {
		cfg := mpi.Config{Nodes: 4, QPsPerPort: setup.qps, Policy: setup.policy}
		var worst sim.Time
		_, err := mpi.Run(cfg, func(c *mpi.Comm) {
			rank := c.Rank()
			px, py := rank%gridX, rank/gridX
			left := py*gridX + (px-1+gridX)%gridX
			right := py*gridX + (px+1)%gridX
			up := ((py-1+gridY)%gridY)*gridX + px
			down := ((py+1)%gridY)*gridX + px

			send := make([]byte, haloBytes)
			recv := make([]byte, haloBytes)
			c.Barrier()
			t0 := c.Time()
			for it := 0; it < iterations; it++ {
				c.Sendrecv(right, 1, send, left, 1, recv)
				c.Sendrecv(left, 2, send, right, 2, recv)
				c.Sendrecv(down, 3, send, up, 3, recv)
				c.Sendrecv(up, 4, send, down, 4, recv)
				c.Compute(computeTime)
			}
			el := []int64{int64(c.Time() - t0)}
			c.AllreduceInt64(el, mpi.Max)
			if rank == 0 {
				worst = sim.Time(el[0])
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s %dQP/port: %8.2f ms for %d iterations (%.1f us/iter)\n",
			setup.policy, setup.qps, worst.Millis(), iterations, worst.Micros()/iterations)
	}
	// Output:
	// original         1QP/port:    54.72 ms for 30 iterations (1823.9 us/iter)
	// round robin      4QP/port:    54.72 ms for 30 iterations (1823.9 us/iter)
	// even striping    4QP/port:    40.89 ms for 30 iterations (1362.9 us/iter)
	// EPC              4QP/port:    40.89 ms for 30 iterations (1362.9 us/iter)
}

// A one-sided Get: every rank accumulates its share into rank 0's 16-bin
// histogram, then rank 3 reads the whole histogram back without rank 0
// taking part.
func ExampleWin_Get() {
	const bins = 16
	cfg := mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		win := c.WinCreate(make([]byte, 8*bins), 8*bins)
		vals := make([]int64, bins)
		for i := range vals {
			vals[i] = int64((c.Rank() + 1) * (i + 1))
		}
		win.AccumulateInt64(0, 0, vals, mpi.Sum)
		win.Fence()
		if c.Rank() == 0 {
			fmt.Print("histogram after accumulate: ")
			for i := 0; i < 4; i++ {
				fmt.Printf("%d ", win.ReadInt64(i))
			}
			fmt.Println("...")
		}

		if c.Rank() == 3 {
			got := make([]byte, 8*bins)
			win.Get(0, 0, got)
			win.Fence()
			total := int64(0)
			for i := 0; i < bins; i++ {
				total += int64(binary.LittleEndian.Uint64(got[8*i:]))
			}
			fmt.Printf("rank 3 fetched the histogram one-sidedly; grand total = %d\n", total)
		} else {
			win.Fence()
		}
		win.Free()
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// histogram after accumulate: 10 20 30 40 ...
	// rank 3 fetched the histogram one-sidedly; grand total = 1360
}

// A large Put stripes across the rails exactly like a blocking two-sided
// transfer: under EPC a 1 MB Put goes out as one RDMA write per QP.
func ExampleWin_PutN() {
	cfg := mpi.Config{Nodes: 2, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		before := c.Endpoint().Stats().StripesSent
		big := c.WinCreate(nil, 1<<20)
		if c.Rank() == 1 {
			big.PutN(2, 0, nil, 1<<20)
		}
		big.Fence()
		if c.Rank() == 1 {
			after := c.Endpoint().Stats().StripesSent
			fmt.Printf("rank 1's 1MB Put used %d RDMA stripes across the rails\n", after-before)
		}
		big.Free()
	})
	if err != nil {
		panic(err)
	}
	// Output: rank 1's 1MB Put used 4 RDMA stripes across the rails
}

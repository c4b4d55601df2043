package nas

import (
	"encoding/binary"
	"fmt"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// ISClass describes one NPB Integer Sort problem class.
type ISClass struct {
	Name         byte
	TotalKeysLog int // log2 of total key count
	MaxKeyLog    int // log2 of the key range
	Iterations   int
	// KeyCost is the calibrated Power6 cost per key per processing pass
	// unit (the model charges (2·sent + 2·received)·KeyCost per
	// iteration). Class B's larger ranking array falls out of cache, so
	// its per-key cost is higher — which is exactly why the paper's
	// class B shows a smaller relative communication benefit than A.
	KeyCost sim.Time
}

// NPB IS problem classes.
var (
	ISClassS = ISClass{'S', 16, 11, 10, 500 * sim.Picosecond}
	ISClassW = ISClass{'W', 20, 16, 10, 550 * sim.Picosecond}
	ISClassA = ISClass{'A', 23, 19, 10, 610 * sim.Picosecond}
	ISClassB = ISClass{'B', 25, 21, 10, 1000 * sim.Picosecond}
	ISClassC = ISClass{'C', 27, 23, 10, 1100 * sim.Picosecond}
)

// ISClassByName resolves "S", "W", "A", "B", "C".
func ISClassByName(name byte) (ISClass, error) {
	switch name {
	case 'S':
		return ISClassS, nil
	case 'W':
		return ISClassW, nil
	case 'A':
		return ISClassA, nil
	case 'B':
		return ISClassB, nil
	case 'C':
		return ISClassC, nil
	}
	return ISClass{}, fmt.Errorf("nas: unknown IS class %q", string(name))
}

const isBucketsLog = 10 // 1024 buckets, as in NPB

// ISResult reports one rank's view of a finished IS run.
type ISResult struct {
	Class    byte
	NP       int
	Elapsed  sim.Time // timed region: the benchmark iterations
	Verified bool
	MopTotal float64 // million keys ranked per second (aggregate)
}

// isBoard is the shared-address-space exchange board used when payloads are
// synthetic: ranks deposit their outgoing key slices here while the MPI
// layer simulates transfers of identical sizes. Delivery ordering is safe
// because Alltoallv returning at a rank implies every peer has already
// posted (and therefore deposited) its block for this rank.
type isBoard struct {
	out [][][]int32 // [src][dst] -> keys
}

// RunIS executes the NPB IS kernel on the communicator. Every rank of the
// job must call it with the same arguments. When synthetic is true the
// simulated messages carry only lengths and key data moves through the
// shared exchange board — identical protocol traffic, no payload copies.
// board must be one shared *isBoard per job when synthetic (nil otherwise).
func RunIS(c *mpi.Comm, class ISClass, synthetic bool, board *isBoard) ISResult {
	p := c.Size()
	rank := c.Rank()
	nk := (1 << class.TotalKeysLog) / p
	maxKey := 1 << class.MaxKeyLog
	nbuckets := 1 << isBucketsLog
	shift := class.MaxKeyLog - isBucketsLog

	// ---- untimed setup: key generation (NPB create_seq) ----
	keys := make([]int32, nk+2*class.Iterations) // slack for modified keys
	keys = keys[:nk]
	r := NewRandom(314159265).Skip(uint64(rank) * uint64(nk) * 4)
	q := float64(maxKey) / 4
	for i := range keys {
		x := r.Next() + r.Next() + r.Next() + r.Next()
		keys[i] = int32(q * x)
	}
	c.Compute(nops(nk) * 4 * class.KeyCost) // 4 LCG draws per key

	c.Barrier()
	t0 := c.Time()

	var verified = true
	var recvKeys []int32
	var myLo, myHi int // this rank's key range after the last iteration

	for iter := 1; iter <= class.Iterations; iter++ {
		// NPB modifies two keys each iteration.
		keys[iter] = int32(iter)
		keys[iter+class.Iterations] = int32(maxKey - iter)

		// 1. Local bucket counts.
		counts := make([]int64, nbuckets)
		for _, k := range keys {
			counts[int(k)>>shift]++
		}
		c.Compute(nops(nk) * class.KeyCost)

		// 2. Global bucket sizes.
		c.AllreduceInt64(counts, mpi.Sum)

		// 3. Partition buckets over ranks: contiguous ranges with
		// balanced cumulative key counts.
		bounds := partitionBuckets(counts, p)

		// 4. Redistribute keys: order the local keys by destination.
		sendCounts := make([]int, p)
		for _, k := range keys {
			sendCounts[destOf(bounds, int(k)>>shift)]++
		}
		sdispls := make([]int, p)
		for j := 1; j < p; j++ {
			sdispls[j] = sdispls[j-1] + sendCounts[j-1]
		}
		sendKeys := make([]int32, nk)
		fill := append([]int(nil), sdispls...)
		for _, k := range keys {
			d := destOf(bounds, int(k)>>shift)
			sendKeys[fill[d]] = k
			fill[d]++
		}
		c.Compute(nops(nk) * class.KeyCost)

		// Exchange per-destination byte counts, then the keys.
		recvCounts := exchangeCounts(c, sendCounts)
		total := 0
		rdispls := make([]int, p)
		for j := 0; j < p; j++ {
			rdispls[j] = total
			total += recvCounts[j]
		}
		recvKeys = make([]int32, total)
		alltoallvKeys(c, synthetic, board, sendKeys, sendCounts, sdispls, recvKeys, recvCounts, rdispls)

		// 5. Local ranking (counting sort histogram over our range).
		lo := 0
		if rank > 0 {
			lo = bounds[rank-1]
		}
		myLo, myHi = lo<<shift, bounds[rank]<<shift
		span := myHi - myLo
		hist := make([]int32, span)
		ok := true
		for _, k := range recvKeys {
			idx := int(k) - myLo
			if idx < 0 || idx >= span {
				ok = false
				break
			}
			hist[idx]++
		}
		verified = verified && ok
		c.Compute(2 * nops(len(recvKeys)) * class.KeyCost)
	}

	elapsed := c.Time() - t0

	// ---- untimed verification ----
	// (a) Checksum and count preserved across the last redistribution.
	// The reference sums come from the final local array, which includes
	// the NPB per-iteration key modifications.
	sumBefore := []int64{0, int64(nk)}
	for _, k := range keys {
		sumBefore[0] += int64(k)
	}
	c.AllreduceInt64(sumBefore, mpi.Sum)
	sumAfter := []int64{0, int64(len(recvKeys))}
	for _, k := range recvKeys {
		sumAfter[0] += int64(k)
	}
	c.AllreduceInt64(sumAfter, mpi.Sum)
	if sumAfter[0] != sumBefore[0] || sumAfter[1] != sumBefore[1] {
		verified = false
	}
	// (b) Global ordering: my largest key ≤ right neighbour's smallest.
	myMax := int32(-1)
	myMin := int32(maxKey)
	for _, k := range recvKeys {
		if k > myMax {
			myMax = k
		}
		if k < myMin {
			myMin = k
		}
	}
	if rank+1 < p {
		c.Send(rank+1, 777, int32le(myMax))
	}
	if rank > 0 {
		buf := make([]byte, 4)
		c.Recv(rank-1, 777, buf)
		leftMax := int32(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
		if len(recvKeys) > 0 && leftMax > myMin {
			verified = false
		}
	}
	// (c) Range containment was folded into `verified` per iteration; the
	// final range markers are kept for the boundary check above.
	_, _ = myLo, myHi
	// Agree on the global verdict.
	v := []int64{1}
	if !verified {
		v[0] = 0
	}
	c.AllreduceInt64(v, mpi.Min)
	verified = v[0] == 1

	// Aggregate elapsed = max across ranks.
	e := []int64{int64(elapsed)}
	c.AllreduceInt64(e, mpi.Max)
	elapsed = sim.Time(e[0])

	totalKeys := float64(int64(1) << class.TotalKeysLog)
	return ISResult{
		Class:    class.Name,
		NP:       p,
		Elapsed:  elapsed,
		Verified: verified,
		MopTotal: totalKeys * float64(class.Iterations) / elapsed.Seconds() / 1e6,
	}
}

// NewISBoard allocates the shared exchange board for synthetic-payload runs.
func NewISBoard(np int) *isBoard {
	b := &isBoard{out: make([][][]int32, np)}
	for i := range b.out {
		b.out[i] = make([][]int32, np)
	}
	return b
}

// nops converts an operation count into a sim.Time multiplicand so that
// `nops(n) * costPerOp` reads naturally.
func nops(n int) sim.Time { return sim.Time(n) }

func int32le(v int32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

// partitionBuckets assigns contiguous bucket ranges to ranks with balanced
// key counts; bounds[j] is the first bucket NOT owned by rank j.
func partitionBuckets(global []int64, p int) []int {
	var total int64
	for _, c := range global {
		total += c
	}
	bounds := make([]int, p)
	var acc int64
	j := 0
	for b := 0; b < len(global) && j < p-1; b++ {
		acc += global[b]
		if acc >= total*int64(j+1)/int64(p) {
			bounds[j] = b + 1
			j++
		}
	}
	for ; j < p; j++ {
		bounds[j] = len(global)
	}
	return bounds
}

// destOf maps a bucket to its owning rank given partition bounds.
func destOf(bounds []int, bucket int) int {
	for j, b := range bounds {
		if bucket < b {
			return j
		}
	}
	return len(bounds) - 1
}

// exchangeCounts shares per-destination key counts (NPB uses an alltoall of
// counts before the keys).
func exchangeCounts(c *mpi.Comm, send []int) []int {
	p := c.Size()
	sendB := make([]byte, 8*p)
	for j, v := range send {
		putU64(sendB[8*j:], uint64(v))
	}
	recvB := make([]byte, 8*p)
	c.Alltoall(sendB, 8, recvB)
	recv := make([]int, p)
	for j := range recv {
		recv[j] = int(getU64(recvB[8*j:]))
	}
	return recv
}

// alltoallvKeys moves the keys. Real mode serialises int32 keys into the
// simulated transport; synthetic mode sends length-only messages and moves
// the keys through the shared board.
func alltoallvKeys(c *mpi.Comm, synthetic bool, board *isBoard, send []int32, scounts, sdispls []int, recv []int32, rcounts, rdispls []int) {
	p := c.Size()
	rank := c.Rank()
	sb := make([]int, p)
	sd := make([]int, p)
	rb := make([]int, p)
	rd := make([]int, p)
	for j := 0; j < p; j++ {
		sb[j], sd[j] = 4*scounts[j], 4*sdispls[j]
		rb[j], rd[j] = 4*rcounts[j], 4*rdispls[j]
	}
	if synthetic {
		for j := 0; j < p; j++ {
			board.out[rank][j] = send[sdispls[j] : sdispls[j]+scounts[j]]
		}
		c.Alltoallv(nil, sb, sd, nil, rb, rd)
		for j := 0; j < p; j++ {
			copy(recv[rdispls[j]:rdispls[j]+rcounts[j]], board.out[j][rank])
		}
		return
	}
	sendB := make([]byte, 4*len(send))
	for i, k := range send {
		putU32(sendB[4*i:], uint32(k))
	}
	recvB := make([]byte, 4*len(recv))
	c.Alltoallv(sendB, sb, sd, recvB, rb, rd)
	for i := range recv {
		recv[i] = int32(getU32(recvB[4*i:]))
	}
}

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func getU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// The edges of the monotone radix queue (event.go). heapScript covers the
// order at random; these tests build each shape on purpose and check the
// queue's structure along the way.

// checkQueue asserts the queue's invariants: the mask marks exactly the
// non-empty buckets, every timer sits in the bucket its key names under
// last, bucket 0 is a heap by seq, n counts every queued timer, and no
// bucket's spare capacity pins a timer.
func checkQueue(t *testing.T, q *queue) {
	t.Helper()
	n := 0
	for i := range q.b {
		b := q.b[i]
		n += len(b)
		if (len(b) > 0) != (q.mask&(1<<i) != 0) {
			t.Fatalf("bucket %d holds %d timers, mask %b", i, len(b), q.mask)
		}
		for j, tm := range b {
			if k := bits.Len64(uint64(tm.at ^ q.last)); k != i || !tm.queued {
				t.Fatalf("timer (%v, %d) in bucket %d (queued %v), want bucket %d under last %v", tm.at, tm.seq, i, tm.queued, k, q.last)
			}
			if i == 0 && j > 0 && b[(j-1)/2].seq > tm.seq {
				t.Fatalf("bucket 0 is not a heap by seq at %d", j)
			}
		}
		for _, tm := range b[len(b):cap(b)] {
			if tm != nil {
				t.Fatalf("bucket %d pins a timer past its length", i)
			}
		}
	}
	if n != q.n {
		t.Fatalf("n = %d, buckets hold %d", q.n, n)
	}
}

// recorder returns a trace and a handler factory that appends to it.
func recorder() (*[]string, func(string) func()) {
	var got []string
	return &got, func(s string) func() { return func() { got = append(got, s) } }
}

// A reserved ordinal posted late, at exactly last, after a redistribution
// moved same-time timers into bucket 0: it fires before them, as its
// ordinal says.
func TestReservedOrdinalAtLastAfterRedistribution(t *testing.T) {
	e := NewEngine()
	got, rec := recorder()
	var r uint64
	e.Post(8, func() {
		// Popping a scanned bucket 4 made 8 the last key and filed b at it.
		if e.q.last != 8 || e.q.mask&1 == 0 {
			t.Errorf("last %v mask %b: want 8 and a non-empty bucket 0", e.q.last, e.q.mask)
		}
		*got = append(*got, "a")
		e.PostCallSeq(8, r, func(any, int64, int64, int64) { *got = append(*got, "r") }, nil, 0, 0, 0)
		checkQueue(t, &e.q)
	})
	r = e.ReserveSeq(1)
	e.Post(8, rec("b"))
	e.Post(12, rec("c"))
	checkQueue(t, &e.q)
	mustRun(t, e)
	if want := []string{"a", "r", "b", "c"}; !reflect.DeepEqual(*got, want) {
		t.Errorf("order %v, want %v", *got, want)
	}
}

// A lone timer in the lowest bucket pops directly, leaving the ties of the
// bucket above it in place; that bucket is then scanned by (at, seq), a
// reserved ordinal posted into it late included.
func TestLonePopBesideTiedBucket(t *testing.T) {
	e := NewEngine()
	got, rec := recorder()
	r := e.ReserveSeq(1)
	e.Post(1, func() {
		if e.q.last != 1 || e.q.mask != 1<<3 || len(e.q.b[3]) != 3 {
			t.Errorf("after the lone pop: last %v mask %b, bucket 3 holds %d; want 1, only bucket 3, 3 timers",
				e.q.last, e.q.mask, len(e.q.b[3]))
		}
		*got = append(*got, "lone")
		e.PostCallSeq(6, r, func(any, int64, int64, int64) { *got = append(*got, "r") }, nil, 0, 0, 0)
		e.Post(6, rec("t3"))
		checkQueue(t, &e.q)
	})
	e.Post(6, rec("t1"))
	e.Post(7, rec("u"))
	e.Post(6, rec("t2"))
	checkQueue(t, &e.q)
	mustRun(t, e)
	if want := []string{"lone", "r", "t1", "t2", "t3", "u"}; !reflect.DeepEqual(*got, want) {
		t.Errorf("order %v, want %v", *got, want)
	}
}

// Keys that differ only in bit 62 land 61 buckets apart; the top bucket is
// scanned, and Sleep's wakes are compared against a scanned bucket and a
// lone entry, both ways.
func TestKeysDifferingOnlyInBit62(t *testing.T) {
	const hi = Time(1) << 62
	e := NewEngine()
	got, rec := recorder()
	e.Post(hi|3, rec("hi|3"))
	e.Post(3, rec("3"))
	e.Post(2, rec("2"))
	e.Post(hi, rec("hi"))
	e.Post(Forever, rec("forever"))
	if e.q.mask != 1<<2|1<<63 {
		t.Fatalf("mask %b, want buckets 2 and 63", e.q.mask)
	}
	checkQueue(t, &e.q)
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1) // before the smallest of bucket 2's {3, 2}: taken in place
		*got = append(*got, "slept 1")
		p.Sleep(hi) // after 2, 3 and hi: queued
		*got = append(*got, "slept hi+1")
		p.Sleep(1) // before hi|3, alone in the lowest bucket: in place
		*got = append(*got, "slept hi+2")
		p.Sleep(1) // ties hi|3: queued behind it
		*got = append(*got, "slept hi+3")
		checkQueue(t, &e.q)
	})
	mustRun(t, e)
	want := []string{"slept 1", "2", "3", "hi", "slept hi+1", "slept hi+2", "hi|3", "slept hi+3", "forever"}
	if !reflect.DeepEqual(*got, want) || e.Now() != Forever {
		t.Errorf("order %v at %v, want %v at Forever", *got, e.Now(), want)
	}
	if e.skips != 2 {
		t.Errorf("%d wakes taken in place, want 2", e.skips)
	}
}

// A cancel-heavy queue compacts, bucket 0's heap included, and the
// survivors still fire in (at, seq) order.
func TestCancelHeavyQueueCompacts(t *testing.T) {
	e := NewEngine()
	got, rec := recorder()
	var timers []*Timer // 199 at 5, then 100 at distinct later times
	want := []string{"first"}
	var rsv uint64
	e.At(5, func() {
		// The scan that popped this timer filed the other 199 at 5 into
		// bucket 0. Reserved ordinals posted in reverse make that heap
		// unsorted; then cancelling two thirds of the 299 compacts the queue
		// at the 160th cancel, down to 159, and 39 cancels follow.
		if len(e.q.b[0]) != 199 {
			t.Fatalf("bucket 0 holds %d timers, want 199", len(e.q.b[0]))
		}
		for k := 19; k >= 0; k-- {
			e.PostCallSeq(5, rsv+uint64(k), func(_ any, k, _, _ int64) {
				*got = append(*got, fmt.Sprint("rsv", k))
			}, nil, int64(k), 0, 0)
		}
		for i, h := range timers {
			if i%3 != 0 {
				h.Cancel()
			}
		}
		if e.q.n != 159 || e.ncancel != 39 {
			t.Errorf("%d pending with %d cancelled, want 159 and 39", e.q.n, e.ncancel)
		}
		checkQueue(t, &e.q)
		*got = append(*got, "first")
	})
	rsv = e.ReserveSeq(20)
	for k := 0; k < 20; k++ {
		want = append(want, fmt.Sprint("rsv", k))
	}
	for i := 0; i < 199; i++ {
		timers = append(timers, e.At(5, rec(fmt.Sprint("tie", i))))
		if i%3 == 0 {
			want = append(want, fmt.Sprint("tie", i))
		}
	}
	for i := 0; i < 100; i++ {
		timers = append(timers, e.At(Time(1000-7*i), rec(fmt.Sprint("later", i))))
	}
	for i := 99; i >= 0; i-- { // by fire time
		if (199+i)%3 == 0 {
			want = append(want, fmt.Sprint("later", i))
		}
	}
	mustRun(t, e)
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("order %v,\nwant %v", *got, want)
	}
	if e.QueueHighWater() != 319 || e.q.n != 0 || e.ncancel != 0 {
		t.Errorf("high-water %d, left %d with %d cancelled; want 319, 0, 0", e.QueueHighWater(), e.q.n, e.ncancel)
	}
}

// Popping a cancelled tail empties the queue with its last key past the
// clock. Posts made after Run returns may be earlier than that key, and
// must still fire in order.
func TestCancelledTailDoesNotAdvanceLast(t *testing.T) {
	e := NewEngine()
	got, rec := recorder()
	e.At(8, rec("cancelled")).Cancel()
	mustRun(t, e)
	e.Post(9, rec("9"))
	e.Post(7, rec("7"))
	checkQueue(t, &e.q)
	mustRun(t, e)
	if want := []string{"7", "9"}; !reflect.DeepEqual(*got, want) {
		t.Errorf("order %v, want %v", *got, want)
	}
}

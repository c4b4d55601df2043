package sim

import (
	"math/bits"
	"reflect"
	"testing"
)

// The edges of the monotone radix queue (event.go). heapScript covers the
// order at random; these tests build each shape on purpose and check the
// queue's structure along the way.

// checkQueue asserts the queue's invariants: the mask marks exactly the
// non-empty buckets, every event sits in the bucket its key names under
// last, bucket 0 is a heap by seq, n counts every queued event, and no
// bucket's spare capacity pins an event.
func checkQueue(t *testing.T, q *queue) {
	t.Helper()
	n := 0
	for i := range q.b {
		b := q.b[i]
		n += len(b)
		if (len(b) > 0) != (q.mask&(1<<i) != 0) {
			t.Fatalf("bucket %d holds %d events, mask %b", i, len(b), q.mask)
		}
		for j, ev := range b {
			if k := bits.Len64(uint64(ev.at ^ q.last)); k != i {
				t.Fatalf("event (%v, %d) in bucket %d, want bucket %d under last %v", ev.at, ev.seq, i, k, q.last)
			}
			if i == 0 && j > 0 && b[(j-1)/2].seq > ev.seq {
				t.Fatalf("bucket 0 is not a heap by seq at %d", j)
			}
		}
		for _, ev := range b[len(b):cap(b)] {
			if ev != nil {
				t.Fatalf("bucket %d pins an event past its length", i)
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

package sim

import "testing"

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			r.Push(round*100 + i)
		}
		for i := 0; i < 100; i++ {
			if got := r.Pop(); got != round*100+i {
				t.Fatalf("round %d: pop %d, want %d", round, got, round*100+i)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("round %d: len %d after drain", round, r.Len())
		}
	}
}

func TestRingInterleaved(t *testing.T) {
	// Wrap the ring repeatedly with a persistent backlog so head crosses the
	// capacity boundary: order must survive the wraparound and the grow.
	var r Ring[int]
	next, want := 0, 0
	for i := 0; i < 1000; i++ {
		r.Push(next)
		next++
		r.Push(next)
		next++
		if got := r.Pop(); got != want {
			t.Fatalf("step %d: pop %d, want %d", i, got, want)
		}
		want++
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: pop %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestRingSteadyStateDoesNotGrow(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	capBefore := len(r.buf)
	for i := 0; i < 10000; i++ {
		r.Push(i)
		r.Pop()
	}
	if len(r.buf) != capBefore {
		t.Fatalf("steady-state churn grew the ring: cap %d -> %d", capBefore, len(r.buf))
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty ring must panic")
		}
	}()
	var r Ring[int]
	r.Pop()
}

func TestRingPeek(t *testing.T) {
	var r Ring[string]
	r.Push("a")
	r.Push("b")
	if r.Peek() != "a" {
		t.Fatalf("peek %q, want a", r.Peek())
	}
	if r.Pop() != "a" || r.Peek() != "b" {
		t.Fatal("peek after pop broken")
	}
}

func TestRingFrontBack(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 20; i++ { // wraps the 8- and 16-slot buffers
		r.Push(i)
		if i >= 3 {
			r.Pop()
		}
		*r.Back() += 100
		if got, want := *r.Back(), i+100; got != want {
			t.Fatalf("step %d: back %d, want %d", i, got, want)
		}
	}
	if got := *r.Front(); got != 117 {
		t.Errorf("front %d, want 117", got)
	}
	*r.Front() = -1
	if got := r.Pop(); got != -1 {
		t.Errorf("pop after writing through Front: %d", got)
	}
	r.Pop()
	r.Pop()
	for _, f := range []func(){func() { r.Front() }, func() { r.Back() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty ring accessor did not panic")
				}
			}()
			f()
		}()
	}
}

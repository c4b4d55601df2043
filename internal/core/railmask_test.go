package core

import "testing"

func TestRailMaskBasics(t *testing.T) {
	var m RailMask
	if m.IsDown(0) || m.LiveCount(4) != 4 {
		t.Fatalf("zero mask must be all-live")
	}
	m.MarkDown(1)
	m.MarkDown(3)
	if !m.IsDown(1) || !m.IsDown(3) || m.IsDown(0) || m.IsDown(2) {
		t.Fatalf("mask state wrong: %b", m)
	}
	if got := m.LiveCount(4); got != 2 {
		t.Fatalf("LiveCount = %d, want 2", got)
	}
	if got := m.NextLive(1, 4); got != 2 {
		t.Fatalf("NextLive(1,4) = %d, want 2", got)
	}
	if got := m.NextLive(3, 4); got != 0 {
		t.Fatalf("NextLive(3,4) = %d, want 0 (cyclic)", got)
	}
	if got := m.LiveRails(4, nil); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LiveRails = %v, want [0 2]", got)
	}
	m.MarkUp(1)
	if m.IsDown(1) {
		t.Fatalf("MarkUp did not clear rail 1")
	}
	// All dead → NextLive reports -1.
	var all RailMask
	all.MarkDown(0)
	all.MarkDown(1)
	if got := all.NextLive(0, 2); got != -1 {
		t.Fatalf("NextLive over all-dead mask = %d, want -1", got)
	}
	// Out-of-range indices are ignored / always healthy.
	all.MarkDown(100)
	if all.IsDown(100) {
		t.Fatalf("rail ≥64 must read healthy")
	}
}

func TestMaskedPlansRemapOntoSurvivors(t *testing.T) {
	var dead RailMask
	dead.MarkDown(1)
	st := &ConnState{Dead: dead}
	p := New(EvenStriping, 1024)
	pl := p.PlanBulk(Blocking, 64<<10, 4, st)
	off := 0
	for _, s := range pl {
		if s.Rail == 1 {
			t.Fatalf("plan uses dead rail 1: %v", pl)
		}
		if s.Off != off {
			t.Fatalf("non-contiguous plan: %v", pl)
		}
		off += s.N
	}
	if off != 64<<10 {
		t.Fatalf("plan covers %d, want %d", off, 64<<10)
	}
	if len(pl) != 3 {
		t.Fatalf("expected 3 survivor stripes, got %v", pl)
	}
	// Binding rebinds off its dead rail.
	var dead0 RailMask
	dead0.MarkDown(0)
	b := New(Binding, 0)
	if r := b.PickEager(Blocking, 512, 4, &ConnState{Dead: dead0}); r != 1 {
		t.Fatalf("binding picked rail %d, want rebind to 1", r)
	}
	// Round robin never lands on the dead rail.
	rr := New(RoundRobin, 0)
	for i := 0; i < 8; i++ {
		if r := rr.PickEager(NonBlocking, 512, 4, st); r == 1 {
			t.Fatalf("round robin picked dead rail 1 at step %d", i)
		}
	}
}

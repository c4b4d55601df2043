package sim

import (
	"testing"
	"testing/quick"
)

func TestServerReserveSequential(t *testing.T) {
	s := &Server{Rate: 1e9} // 1 GB/s: 1 byte/ns
	start, end := s.Reserve(0, 1000)
	if start != 0 || end != 1000*Nanosecond {
		t.Fatalf("first: [%v,%v), want [0,1000ns)", start, end)
	}
	// Second arrives while busy: queues behind.
	start, end = s.Reserve(500*Nanosecond, 1000)
	if start != 1000*Nanosecond || end != 2000*Nanosecond {
		t.Fatalf("second: [%v,%v), want [1000ns,2000ns)", start, end)
	}
	// Third arrives after idle gap: starts immediately.
	start, end = s.Reserve(5000*Nanosecond, 1000)
	if start != 5000*Nanosecond || end != 6000*Nanosecond {
		t.Fatalf("third: [%v,%v), want [5000ns,6000ns)", start, end)
	}
}

func TestServerPerItemOverhead(t *testing.T) {
	s := &Server{Rate: 1e9, PerItem: 300 * Nanosecond}
	_, end := s.Reserve(0, 700)
	if end != 1000*Nanosecond {
		t.Errorf("end = %v, want 1us (300ns overhead + 700ns data)", end)
	}
	_, end = s.Reserve(0, 0) // pure-overhead item
	if end != 1300*Nanosecond {
		t.Errorf("end = %v, want 1.3us", end)
	}
}

func TestServerInfiniteRate(t *testing.T) {
	s := &Server{PerItem: 10 * Nanosecond} // Rate 0 = infinite
	_, end := s.Reserve(0, 1<<30)
	if end != 10*Nanosecond {
		t.Errorf("end = %v, want 10ns", end)
	}
}

func TestServerStats(t *testing.T) {
	s := &Server{Rate: 1e9}
	s.Reserve(0, 400)
	s.Reserve(0, 600)
	if s.Items() != 2 || s.Bytes() != 1000 {
		t.Errorf("Items=%d Bytes=%d, want 2,1000", s.Items(), s.Bytes())
	}
	if s.Busy() != 1000*Nanosecond {
		t.Errorf("Busy = %v, want 1us", s.Busy())
	}
	// At t=2us the server was busy 1us of 2us = 50%.
	if u := s.Utilization(2000 * Nanosecond); u < 0.49 || u > 0.51 {
		t.Errorf("Utilization = %g, want 0.5", u)
	}
}

func TestServerUtilizationExcludesFutureBooking(t *testing.T) {
	s := &Server{Rate: 1e9}
	s.Reserve(0, 10000) // busy until 10us
	// At t=5us only 5us of the booking has elapsed.
	if u := s.Utilization(5 * Microsecond); u < 0.99 || u > 1.01 {
		t.Errorf("Utilization mid-booking = %g, want 1.0", u)
	}
}

func TestServerNeverOverlapsProperty(t *testing.T) {
	// Property: consecutive reservations never overlap and never start
	// before their arrival time, for any arrival pattern.
	f := func(arrivals []uint16, sizes []uint16) bool {
		s := &Server{Rate: 2.5e9, PerItem: 100 * Nanosecond}
		var now, prevEnd Time
		for i, a := range arrivals {
			now += Time(a) * Nanosecond
			var n int64 = 1
			if i < len(sizes) {
				n = int64(sizes[i]) + 1
			}
			start, end := s.Reserve(now, n)
			if start < now || start < prevEnd || end <= start {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

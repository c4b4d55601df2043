package sim

// Server models a serial FIFO resource with a fixed byte rate and a fixed
// per-item overhead: a DMA engine, a link lane, a bus. Reserving n bytes at
// time `now` occupies the server for PerItem + n/Rate starting at
// max(now, previous end). Reservations never preempt.
//
// Server does not itself schedule events; callers post the events of the
// returned busy window themselves (Engine.Post or PostCall).
type Server struct {
	Rate    float64 // service rate in bytes per second; 0 means infinite
	PerItem Time    // fixed occupancy added to every reservation

	freeAt Time // end of the last reservation
	busy   Time // accumulated busy time (utilization accounting)
	items  int64
	bytes  int64
}

// Reserve books n bytes of service starting no earlier than now and returns
// the busy window [start, end). n may be zero for pure-overhead items.
func (s *Server) Reserve(now Time, n int64) (start, end Time) {
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	d := s.PerItem + TransferTime(n, s.Rate)
	end = start + d
	s.freeAt = end
	s.busy += d
	s.items++
	s.bytes += n
	return start, end
}

// ReserveDur books an explicit duration of service starting no earlier than
// now, bypassing the rate/PerItem computation. Used for fixed-cost items
// (e.g. acknowledgment generation) on a shared serial resource.
func (s *Server) ReserveDur(now, dur Time) (start, end Time) {
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	if dur < 0 {
		dur = 0
	}
	end = start + dur
	s.freeAt = end
	s.busy += dur
	s.items++
	return start, end
}

// FreeAt reports when the server next becomes idle.
func (s *Server) FreeAt() Time { return s.freeAt }

// Busy reports total accumulated service time.
func (s *Server) Busy() Time { return s.busy }

// Items reports the number of reservations made.
func (s *Server) Items() int64 { return s.items }

// Bytes reports the total bytes reserved.
func (s *Server) Bytes() int64 { return s.bytes }

// Utilization reports busy time as a fraction of elapsed time up to now.
func (s *Server) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	b := s.busy
	if s.freeAt > now {
		b -= s.freeAt - now // exclude booked-but-future service
	}
	if b < 0 {
		b = 0
	}
	return float64(b) / float64(now)
}

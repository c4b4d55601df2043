package fabric

import (
	"testing"

	"ib12x/internal/sim"
)

func TestLaneSendUncontended(t *testing.T) {
	l := Lane{Rate: 1e9} // 1 byte/ns
	start, leaves := l.Send(100*sim.Nanosecond, 1000, 0)
	if start != 100*sim.Nanosecond || leaves != 1100*sim.Nanosecond {
		t.Errorf("window = [%v, %v], want [100ns, 1.1us]", start, leaves)
	}
}

func TestLaneSendQueuesBehindBacklog(t *testing.T) {
	l := Lane{Rate: 1e9}
	l.Send(0, 10000, 0) // busy until 10us
	start, leaves := l.Send(1*sim.Microsecond, 1000, 0)
	if start != 10*sim.Microsecond || leaves != 11*sim.Microsecond {
		t.Errorf("window = [%v, %v], want [10us, 11us]", start, leaves)
	}
}

func TestLaneSendStretchedBySlowSource(t *testing.T) {
	l := Lane{Rate: 1e9}
	// Wire time is 1us but the engine doesn't finish staging until 5us:
	// the last byte leaves at 5us, yet the lane itself is booked for only
	// the wire bytes so other senders can interleave into the gaps.
	_, leaves := l.Send(0, 1000, 5*sim.Microsecond)
	if leaves != 5*sim.Microsecond {
		t.Errorf("leaves = %v, want 5us", leaves)
	}
	if l.FreeAt() != 1*sim.Microsecond {
		t.Errorf("freeAt = %v, want 1us (lane not held by slow source)", l.FreeAt())
	}
}

func TestLaneRecvUncontendedKeepsArrival(t *testing.T) {
	l := Lane{Rate: 1e9}
	delivered := l.Recv(9*sim.Microsecond, 10*sim.Microsecond, 1000)
	if delivered != 10*sim.Microsecond {
		t.Errorf("delivered = %v, want arrival time 10us", delivered)
	}
}

func TestLaneRecvSerializesFanIn(t *testing.T) {
	l := Lane{Rate: 1e9}
	// Two 1000-byte transfers whose first bytes arrive simultaneously from
	// two senders: the second is delayed by one wire time.
	d1 := l.Recv(9*sim.Microsecond, 10*sim.Microsecond, 1000)
	d2 := l.Recv(9*sim.Microsecond, 10*sim.Microsecond, 1000)
	if d1 != 10*sim.Microsecond {
		t.Errorf("first delivered = %v, want 10us", d1)
	}
	if d2 != 11*sim.Microsecond {
		t.Errorf("second delivered = %v, want 11us", d2)
	}
}

func TestLaneRecvSamePathNoDoubleSerialization(t *testing.T) {
	// Back-to-back transfers over one path are already paced by the TX
	// lane; the RX lane must not add delay on top.
	l := Lane{Rate: 1e9}
	d1 := l.Recv(0, 1*sim.Microsecond, 1000)
	d2 := l.Recv(1*sim.Microsecond, 2*sim.Microsecond, 1000)
	if d1 != 1*sim.Microsecond || d2 != 2*sim.Microsecond {
		t.Errorf("delivered = %v, %v; want 1us, 2us", d1, d2)
	}
}

func TestLaneStats(t *testing.T) {
	l := Lane{Rate: 1e9}
	l.Send(0, 500, 0)
	l.Recv(4700*sim.Nanosecond, 5*sim.Microsecond, 300)
	if l.Items() != 2 || l.Bytes() != 800 {
		t.Errorf("Items=%d Bytes=%d, want 2,800", l.Items(), l.Bytes())
	}
	if l.Busy() != 800*sim.Nanosecond {
		t.Errorf("Busy = %v, want 800ns", l.Busy())
	}
}

func TestNetOneWay(t *testing.T) {
	n := NewSingleSwitch(600 * sim.Nanosecond)
	if n.OneWay() != 600*sim.Nanosecond {
		t.Errorf("OneWay = %v, want 600ns", n.OneWay())
	}
}

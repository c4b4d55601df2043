// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives a set of processes (iter.Pull coroutines, resumed one at
// a time) and timed event handlers over a virtual clock. Exactly one
// runnable entity executes at any instant, the ready queue is FIFO and the
// event queue pops by fire time, tie-broken by insertion sequence, so a
// simulation is bit-for-bit reproducible across runs and machines.
//
// Whoever holds the baton runs the event loop. Run starts it; after that a
// proc that parks fires the next events and resumes the next ready proc from
// its own coroutine, and a Sleep whose wake is the next event just advances
// the clock. Either way the events and procs run in the order Run alone
// would give them.
//
// The virtual clock counts integer picoseconds. At the bandwidths modeled in
// this repository (hundreds of MB/s to tens of GB/s) per-byte service times
// are fractions of a nanosecond; picoseconds keep the arithmetic exact enough
// that no drift is observable over multi-second simulations.
package sim

import "fmt"

// Time is a point on (or a span of) the virtual clock, in picoseconds.
type Time int64

// Common durations expressed in clock ticks.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel duration used to mean "no timeout".
const Forever Time = 1<<63 - 1

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMicros converts floating-point microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// String formats the time with an adaptive unit, e.g. "3.2us" or "1.5ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}

// TransferTime returns the time to move n bytes at rate bytes/second.
// A non-positive rate or byte count yields zero.
func TransferTime(n int64, rate float64) Time {
	if n <= 0 || rate <= 0 {
		return 0
	}
	return Time(float64(n) / rate * float64(Second))
}

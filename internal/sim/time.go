// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated time is kept in integer picoseconds so that both the 2 GHz host
// clock (500 ps/cycle) and the 500 MHz switch clock (2000 ps/cycle) divide
// evenly. Autonomous agents — host programs, switch CPUs, disks, DMA engines
// — run as coroutine processes (Proc) that the engine resumes one at a time,
// so a simulation is reproducible run to run regardless of goroutine
// scheduling.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever sorts after any reachable simulation time.
const Forever Time = 1<<63 - 1

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos reports t as floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String formats t with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock converts between cycles of a fixed-frequency clock and Time.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// Cycles returns the duration of n cycles.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// Standard clocks from the paper: the host processor runs at 2 GHz and the
// embedded switch processor at 500 MHz (the paper's 4:1 ratio).
var (
	HostClock   = Clock{Period: 500 * Picosecond}
	SwitchClock = Clock{Period: 2000 * Picosecond}
)

// TransferTime returns the serialization delay of n bytes at the given
// bytes/second bandwidth, rounded up to a whole picosecond.
func TransferTime(n int64, bytesPerSecond float64) Time {
	if n <= 0 {
		return 0
	}
	ps := float64(n) * float64(Second) / bytesPerSecond
	t := Time(ps)
	if float64(t) < ps {
		t++
	}
	return t
}

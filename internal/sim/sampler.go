package sim

import (
	"fmt"
	"strings"
)

// Sampler records a value at fixed simulated intervals — utilization or
// queue-depth timelines for figures. It runs as a process; Stop it before
// the simulation ends (a live sampler keeps the event queue non-empty).
type Sampler struct {
	X []float64 // sample times, seconds
	Y []float64

	interval Time
	stop     bool
	proc     *Proc
}

// StartSampler begins sampling fn every interval, starting one interval in.
// fn may call Stop to end the timeline after the current sample, or
// Decimate to halve its resolution and keep going (long runs stay bounded
// without the timeline ending early). fn runs before the sample is
// appended, so either call observes a consistent X/Y pair set.
//
// A tick that finds nothing but sampler ticks queued in a Run, and no
// settle hook, fails the run with "sim: stalled at <t>", naming every
// blocked process: nothing else can ever fire, and sampling on would only
// double the interval until the clock overflows.
func StartSampler(eng *Engine, interval Time, fn func() float64) *Sampler {
	s := &Sampler{interval: interval}
	s.proc = eng.Spawn("sampler", func(p *Proc) {
		// Bind the tick callback once: a per-interval closure would be one
		// allocation per tick.
		tick := callback(func() {
			eng.ticks--
			p.unparkIfWaiting()
		})
		for !s.stop {
			// An interruptible sleep: Stop unparks the process immediately
			// instead of letting it doze through one more interval, and the
			// pending tick is cancelled so it cannot hold the event queue
			// open or advance the clock past the run's end.
			deadline := p.Now() + s.interval
			timer := eng.schedule(deadline, tick)
			eng.ticks++
			for !s.stop && p.Now() < deadline {
				p.park()
			}
			if s.stop {
				if eng.cancel(timer) {
					eng.ticks--
				}
				return
			}
			v := fn()
			s.X = append(s.X, p.Now().Seconds())
			s.Y = append(s.Y, v)
			if !s.stop && eng.stalled() {
				panic(eng.stall())
			}
		}
	})
	s.proc.sampler = true
	return s
}

// stalled reports whether nothing but sampler ticks can ever fire again:
// the phase is a Run (with a deadline, the caller may add work after it),
// no settle hook is queued, and every queued event is a sampler tick.
func (e *Engine) stalled() bool {
	return e.deadline == Forever && e.settleHead == len(e.settleq) && e.pending() == e.ticks
}

// stallError is the failure of a run in which nothing but sampler ticks is
// left to fire. It names every process still blocked, samplers aside.
type stallError struct {
	at      Time
	blocked []string
}

func (s *stallError) Error() string {
	blocked := "none"
	if len(s.blocked) > 0 {
		blocked = strings.Join(s.blocked, ", ")
	}
	return fmt.Sprintf("sim: stalled at %v: only sampler ticks are queued; %d blocked: %s",
		s.at, len(s.blocked), blocked)
}

// stall builds the report of a stalled run.
func (e *Engine) stall() *stallError {
	st := &stallError{at: e.now}
	for _, p := range e.all {
		if !p.done && !p.sampler {
			st.blocked = append(st.blocked, p.name)
		}
	}
	return st
}

// Stop ends sampling and wakes the sampler process immediately, so a
// stopped sampler no longer holds the event queue open for a further
// interval.
func (s *Sampler) Stop() {
	s.stop = true
	if s.proc != nil {
		s.proc.unparkIfWaiting()
	}
}

// N reports how many samples were taken.
func (s *Sampler) N() int { return len(s.X) }

// Interval reports the current sampling interval (doubled by Decimate).
func (s *Sampler) Interval() Time { return s.interval }

// Decimate halves the timeline's resolution in place: every other recorded
// sample is dropped and the sampling interval doubles. The kept samples
// (the odd-indexed ones, at 2dt, 4dt, ...) land exactly on the doubled
// grid, so a timeline decimated k times looks as if it had been sampled at
// 2^k times the original interval all along. Call from the sampling fn
// when the series reaches a size cap.
func (s *Sampler) Decimate() {
	keep := 0
	for i := 1; i < len(s.X); i += 2 {
		s.X[keep] = s.X[i]
		s.Y[keep] = s.Y[i]
		keep++
	}
	s.X = s.X[:keep]
	s.Y = s.Y[:keep]
	s.interval *= 2
}

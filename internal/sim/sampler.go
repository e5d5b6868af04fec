package sim

import (
	"fmt"
	"strings"
)

// Sampler calls a function at fixed simulated intervals — the clock behind
// utilization and queue-depth timelines. It is no process but two typed
// events: a tick at each interval boundary, which queues a sample at the
// same instant, and the sample, which calls the function and queues the
// next tick. Stop it before the simulation ends (a live sampler keeps the
// event queue non-empty).
type Sampler struct {
	eng      *Engine
	interval Time
	sample   func()
	stop     bool
}

// samplerTick and samplerSample are a Sampler's two events. Both are
// pointer-shaped, so queuing either allocates nothing.
type (
	samplerTick   Sampler
	samplerSample Sampler
)

// StartSampler calls sample every interval, starting one interval in.
// sample may call Stop to end sampling, or SetInterval to space the samples
// that follow differently (long runs stay bounded without the timeline
// ending early).
//
// A sample that finds nothing but sampler ticks queued in a Run, and no
// settle hook, fails the run with "sim: stalled at <t>", naming every
// blocked process: nothing else can ever fire, and sampling on would only
// double the interval until the clock overflows.
func StartSampler(eng *Engine, interval Time, sample func()) *Sampler {
	s := &Sampler{eng: eng, interval: interval, sample: sample}
	// A start event at the current instant queues the first tick, as a
	// sampling process would from its first wake: the sampler makes that
	// loop's schedule calls, in the same order.
	eng.Schedule(eng.now, s.next)
	return s
}

// next queues the tick that ends the current interval, unless the sampler
// has stopped.
func (s *Sampler) next() {
	if !s.stop {
		s.eng.schedule(s.eng.now+s.interval, (*samplerTick)(s))
		s.eng.ticks++
	}
}

// Fire queues the sample at the tick's own instant, after the events
// already queued there: where a process woken by the tick would run.
func (t *samplerTick) Fire() {
	s := (*Sampler)(t)
	s.eng.ticks--
	if !s.stop {
		s.eng.schedule(s.eng.now, (*samplerSample)(s))
	}
}

// Fire takes the sample, checks for a stall and queues the next tick.
func (a *samplerSample) Fire() {
	s := (*Sampler)(a)
	if s.stop {
		return
	}
	s.sample()
	if !s.stop && s.eng.stalled() {
		panic(s.eng.stall())
	}
	s.next()
}

// stalled reports whether nothing but sampler ticks can ever fire again:
// the phase is a Run (with a deadline, the caller may add work after it),
// no settle hook is queued, and every queued event is a sampler tick.
func (e *Engine) stalled() bool {
	return e.deadline == Forever && e.settleHead == len(e.settleq) && e.pending() == e.ticks
}

// stallError is the failure of a run in which nothing but sampler ticks is
// left to fire. It names every process still blocked.
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
		if !p.done {
			st.blocked = append(st.blocked, p.name)
		}
	}
	return st
}

// Stop ends sampling: no sample is taken after it. The pending tick still
// fires once more, as a no-op, so a Run the sampler kept going ends at that
// tick's boundary.
func (s *Sampler) Stop() { s.stop = true }

// Interval reports the sampling interval. Read from the sample function,
// it is the time since the previous sample (or since the start).
func (s *Sampler) Interval() Time { return s.interval }

// SetInterval changes the sampling interval from the next tick on.
func (s *Sampler) SetInterval(d Time) { s.interval = d }

package sim

import "fmt"

// Proc is a simulated process. The engine never runs two processes (or a
// process and an event callback) concurrently, so process code may touch
// shared simulation state without locks. A process comes in one of two
// forms:
//
//   - A goroutine process (Spawn) runs a function on its own goroutine that
//     the engine resumes one at a time. Inside the function, call
//     Sleep/Queue.Get/etc. to advance simulated time.
//   - A step process (SpawnStep) has no goroutine. Each of its wake events
//     calls its step function inline, on whichever goroutine drives the
//     event loop, and the step returns instead of blocking: it waits through
//     the non-blocking forms of the primitives (WakeAt, Queue.GetOrWait,
//     Semaphore.AcquireOrWait, Arbiter.JoinOrWait, Signal.AddWaiter), which
//     arrange the wake and report that the step must return. A step machine
//     that makes exactly the schedule calls of the blocking loop it
//     replaces, in the same order, leaves the (at, seq) dispatch order — and
//     so every result — unchanged, while a wake costs a function call
//     instead of a goroutine handoff.
type Proc struct {
	eng  *Engine
	name string

	// handoff is a goroutine process's single control channel: receiving on
	// it means "your wake event just fired — you are the active goroutine,
	// continue". A blocked process does not yield to a central engine
	// goroutine; it drives the event loop itself (see block), so a
	// cross-process switch costs a single token send. Nil for a step
	// process.
	handoff chan struct{}

	// step, when non-nil, makes this a step process: its wake events call
	// step inline instead of handing off to a goroutine.
	step func(p *Proc)

	done bool

	// waiting is true while the process is parked on a condition; the
	// synchronization primitives in this package wake it via unpark.
	waiting bool

	// killed asks the process to unwind at its next block point; see
	// Engine.Shutdown.
	killed bool
}

// errKilled unwinds a process goroutine during Engine.Shutdown.
type killedError struct{}

func (killedError) Error() string { return "sim: proc killed by Shutdown" }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn creates a process running fn, starting at the current simulated
// time. fn runs on its own goroutine but only while the engine is paused, so
// it may freely use the engine and other simulation objects.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is like Spawn but the process begins at the given absolute time.
func (e *Engine) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	p := e.goProc(name, fn)
	// The wake event carries the proc itself rather than a closure, so
	// spawning (and every later sleep/unpark) costs no per-event allocation.
	e.schedule(at, (*wake)(p))
	return p
}

// goProc registers a goroutine process running fn and starts its goroutine,
// which waits for the first handoff.
func (e *Engine) goProc(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:     e,
		name:    name,
		handoff: make(chan struct{}),
	}
	e.procs++
	e.all = append(e.all, p)
	go func() {
		<-p.handoff
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					// Surface the panic in the Run caller: exitDrive hands
					// control back and driveMain re-raises, so a handler
					// bug fails the test instead of killing the process.
					e.fatal = e.wrapPanic(r, p)
				}
			}
			p.done = true
			e.procs--
			// This goroutine still holds the control token: keep the event
			// loop moving until control belongs elsewhere, then exit.
			e.exitDrive()
		}()
		if p.killed {
			panic(killedError{})
		}
		fn(p)
	}()
	return p
}

// SpawnStep creates a step process whose first wake event fires at the
// current simulated time. Every wake calls step(p) inline; step must not
// block (no Sleep, Get, Acquire, Join or Wait), only wait through WakeAt,
// the OrWait primitives and Signal.AddWaiter, and return. Keep the
// machine's state outside the function — typically in the struct step is
// a method of.
func (e *Engine) SpawnStep(name string, step func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, step: step}
	e.procs++
	e.all = append(e.all, p)
	e.schedule(e.now, (*wake)(p))
	return p
}

// procPanic wraps a panic raised while an engine drives: by a process, a
// step, or an event callback (proc empty).
type procPanic struct {
	proc  string
	at    Time
	value any
}

func (pp *procPanic) Error() string {
	if pp.proc == "" {
		return fmt.Sprintf("sim: event callback at %v panicked: %v", pp.at, pp.value)
	}
	return fmt.Sprintf("sim: proc %q panicked: %v", pp.proc, pp.value)
}

// block parks the process until its next wake event fires. Rather than
// yielding to a central engine goroutine, the blocking process drives the
// event loop itself: if the next event is its own wake-up — the dominant
// case — it simply continues, with no channel operation or goroutine switch
// at all. If the next event resumes another goroutine process, the token is
// handed straight to it (one send); and when the phase ends the Run caller
// is woken instead. It must be called from the process goroutine; a step
// process has none, so a step that blocks panics.
func (p *Proc) block() {
	if p.step != nil {
		panic("sim: step process " + p.name + " blocked; steps wait through WakeAt and the OrWait forms")
	}
	e := p.eng
	if next := e.drive(); next != p {
		if next == nil {
			e.mainWake <- struct{}{}
		} else {
			e.handoffs++
			next.handoff <- struct{}{}
		}
		<-p.handoff
	}
	if p.killed {
		panic(killedError{})
	}
}

// Sleep suspends the process for d simulated time (d <= 0 is a no-op that
// still yields to same-time events scheduled earlier).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %s", d, p.name))
	}
	p.eng.schedule(p.eng.now+d, (*wake)(p))
	p.block()
}

// SleepUntil suspends the process until the given absolute time; times in
// the past panic.
func (p *Proc) SleepUntil(at Time) {
	p.WakeAt(at)
	p.block()
}

// WakeAt is the non-blocking SleepUntil: it schedules the process's next
// wake at the given absolute time without suspending the caller. A step
// returns after calling it; times in the past panic.
func (p *Proc) WakeAt(at Time) {
	if at < p.eng.now {
		panic(fmt.Sprintf("sim: SleepUntil into the past (%v < %v) in %s", at, p.eng.now, p.name))
	}
	p.eng.schedule(at, (*wake)(p))
}

// wait marks the process parked with no scheduled wake-up; something must
// later call unpark. The non-blocking primitives call it and return; a
// goroutine process then blocks (park).
func (p *Proc) wait() { p.waiting = true }

// park blocks the process with no scheduled wake-up; something must later
// call unpark. Used by the synchronization primitives in this package.
func (p *Proc) park() {
	p.wait()
	p.block()
}

// unpark schedules a parked process to continue at the current time. It is
// safe to call from engine or process context.
func (p *Proc) unpark() {
	if !p.waiting {
		panic("sim: unpark of non-waiting proc " + p.name)
	}
	p.waiting = false
	p.eng.schedule(p.eng.now, (*wake)(p))
}

// unparkIfWaiting is unpark for conditions whose waiters re-check in a loop:
// a process that is already scheduled to run will see the new state anyway,
// so a second wake-up is a no-op rather than an error.
func (p *Proc) unparkIfWaiting() {
	if p.waiting {
		p.unpark()
	}
}

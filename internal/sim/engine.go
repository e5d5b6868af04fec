package sim

// Action is a typed event: the engine calls Fire when it comes due. A
// pointer-shaped action (a *T) is stored in the event record as it is, so
// posting one allocates nothing, where a func() closure over the same state
// allocates on every call. The SAN's link deliveries are actions: the
// packet itself, which names its link.
type Action interface{ Fire() }

// callback runs a plain func as an Action. A func value is pointer-shaped,
// so converting one allocates nothing.
type callback func()

// Fire calls the func.
func (f callback) Fire() { f() }

// wake is a process's wake event. The drive loop resumes the process (steps
// inline, goroutines by handoff) instead of calling Fire.
type wake Proc

// Fire is never called: see wake.
func (w *wake) Fire() { panic("sim: a process wake is resumed, not fired") }

// Engine is a discrete-event simulator.
//
// Concurrency contract: a single Engine is not safe for concurrent use —
// all interaction must come from the engine's own callbacks or from the
// single currently-running Proc. Distinct Engines share no mutable state
// and may run on separate goroutines simultaneously (the parallel
// experiment harness relies on this). A trace sink shared by engines that
// run in parallel is invoked from every engine's goroutine and must do its
// own locking.
//
// Scheduling model: exactly one goroutine is ever active — either the
// goroutine that called Run (the "main" driver) or one process goroutine.
// There is no dedicated engine goroutine that every context switch must
// bounce through: a process that blocks keeps driving the event loop
// inline, so a process that wakes itself (the dominant pattern — Sleep,
// zero-delay yields, self-service queues) pays no channel operation at all,
// and a switch to a different process is a single token handoff instead of
// a yield-to-engine plus a resume. Callbacks and step processes have no
// goroutine of their own: whichever goroutine drives runs them inline.
type Engine struct {
	now Time

	// The pending events (eventq.go): lanes[0] is the run queue, lanes[1:]
	// the delay lanes, busy has bit i set while lanes[i] holds an event, and
	// heap holds the events no lane takes.
	lanes [1 + delayLanes]fifo
	busy  uint8
	heap  []event

	seq   int64
	fired int64
	// handoffs counts goroutine handoffs: control passed to a process
	// goroutine other than the one driving (see Handoffs).
	handoffs int64

	// settleq holds end-of-instant hooks (Settle). A hook is promoted to an
	// ordinary event at e.now the moment the current instant quiesces — no
	// pending event remains at the current time — so hooks always run after
	// every event of their instant, in registration order, and always before
	// the clock advances or a run phase returns. Entries before settleHead
	// have been promoted; the backing array is recycled once drained.
	settleq    []func()
	settleHead int

	// procs counts live (spawned, not yet finished) processes, for leak
	// detection in tests.
	procs int
	// all records every spawned process so Shutdown can unwind the
	// goroutines of perpetual servers (switch CPUs and the like) and retire
	// step processes.
	all []*Proc

	// fatal holds a panic raised while the engine drives — by a process, a
	// step or an event callback, on whichever goroutine — or a stall report,
	// re-raised from Run by the main driver when control returns to it.
	fatal error
	// ticks counts the queued sampler ticks, so a sampler can tell when
	// nothing else is left to fire (see stalled).
	ticks int
	// firing is the step process whose step is running, nil otherwise, so
	// a panic inside a step is attributed to it.
	firing *Proc

	// mainWake resumes the Run caller when a phase ends (queue drained,
	// deadline reached, Stop, or a fatal process panic) while a process
	// goroutine was driving.
	mainWake chan struct{}

	// deadline bounds the current Run/RunUntil phase; every driver honours
	// it, whichever goroutine happens to be running the loop.
	deadline Time

	stopped bool
	// shuttingDown makes finishing processes hand control straight back to
	// Shutdown instead of driving the remaining event queue.
	shuttingDown bool

	tracing bool
	sink    TraceSink
}

// TraceEvent is one typed trace record. Cat groups events for filtering
// ("packet", "handler", "cache", "disk"), Name is the event kind
// within the category ("send", "dispatch", "retire", ...), Comp names the
// emitting component ("sw0", "h3.cpu"), and Detail carries the rest as
// preformatted text.
type TraceEvent struct {
	At     Time
	Cat    string
	Name   string
	Comp   string
	Detail string
}

// String renders the event as a "comp: detail" trace-line body.
func (ev TraceEvent) String() string {
	if ev.Comp == "" {
		return ev.Detail
	}
	return ev.Comp + ": " + ev.Detail
}

// TraceSink consumes typed trace events. A sink installed while engines run
// in parallel is invoked from every engine's goroutine and must do its own
// locking.
type TraceSink func(ev TraceEvent)

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	e := new(Engine)
	e.init()
	return e
}

// init readies a zero Engine: time zero, an empty event queue.
func (e *Engine) init() {
	e.mainWake = make(chan struct{})
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events reports how many events have fired — the simulation's work metric.
func (e *Engine) Events() int64 { return e.fired }

// Handoffs reports how many times control has passed from the driving
// goroutine to a different process goroutine: a channel send and receive
// each, against a function call for a callback, a step or a process that
// wakes itself. Handing control back to the Run caller at the end of a
// phase is not counted.
func (e *Engine) Handoffs() int64 { return e.handoffs }

// Schedule runs fn at the given absolute time, which must not be in the
// past.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, callback(fn))
}

// Post fires a at the given absolute time, which must not be in the past.
func (e *Engine) Post(at Time, a Action) {
	e.schedule(at, a)
}

// Settle registers fn to run at the end of the current instant: after every
// event scheduled at the engine's current time has fired — whatever order
// those events were inserted in — and before the clock advances past it or
// the current run phase returns. Hooks run in registration order, and a
// hook's own same-instant effects (events it schedules at the current time,
// processes it unparks) complete before the next hook runs. The settle
// arbiter (Arbiter) uses this to make same-instant contention a pure
// function of simulated state rather than of event-insertion order.
func (e *Engine) Settle(fn func()) {
	e.settleq = append(e.settleq, fn)
}

// promoteSettle turns the oldest registered settle hook into an ordinary
// event at the current instant. Only popNext calls it, and only once the
// instant has quiesced, so the promoted event is the next to fire.
func (e *Engine) promoteSettle() {
	fn := e.settleq[e.settleHead]
	e.settleq[e.settleHead] = nil
	e.settleHead++
	if e.settleHead == len(e.settleq) {
		e.settleq = e.settleq[:0]
		e.settleHead = 0
	}
	e.schedule(e.now, callback(fn))
}

// Stop makes Run return after the current event completes. Pending events
// remain queued, and the clock stays at the event that called Stop.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called, and
// returns the final simulation time.
func (e *Engine) Run() Time {
	e.stopped = false
	e.deadline = Forever
	e.driveMain()
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline (if the simulation did not already pass it). A phase
// that Stop ended early leaves the clock where it stopped: events before the
// deadline may still be queued, and the clock must never pass a queued event
// and later move back to fire it.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	e.deadline = deadline
	e.driveMain()
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// runWindow executes events with timestamps <= deadline, leaving the clock at
// the last executed event rather than advancing it to the deadline. The
// partition Group runs bounded lookahead windows with it: virtual time must
// reflect only executed work, because cross-partition messages may still be
// injected afterwards at times before the deadline.
func (e *Engine) runWindow(deadline Time) {
	e.stopped = false
	e.deadline = deadline
	e.driveMain()
}

// driveMain is the Run caller's drive loop. It fires callbacks and steps
// inline; when an event resumes a goroutine process it hands that goroutine
// the control token and parks until a driver — whichever process goroutine
// holds control when the phase ends — wakes it back up. A panic raised
// while driving, on any goroutine, re-raises here.
func (e *Engine) driveMain() {
	for {
		next := e.drive()
		if next == nil {
			if err := e.fatal; err != nil {
				e.fatal = nil
				panic(err)
			}
			return
		}
		e.handoffs++
		next.handoff <- struct{}{}
		<-e.mainWake
	}
}

// drive runs the event loop on the calling goroutine — the Run caller's, or
// that of a goroutine process that blocked or finished — firing callbacks
// and steps inline. It returns the goroutine process the next event resumes
// (for a blocked caller, possibly itself), or nil when the phase is over:
// queue drained, deadline reached, Stop, Shutdown, or a fatal panic. A
// blocked process whose own wake is next — the dominant case — gets it
// straight back, without arming driveInline's panic guard.
func (e *Engine) drive() *Proc {
	act, ok := e.takeNext()
	if !ok {
		return nil
	}
	if w, ok := act.(*wake); ok && w.step == nil {
		return (*Proc)(w)
	}
	return e.driveInline(act)
}

// takeNext pops the phase's next event, advances the clock to it and counts
// the firing; ok is false when the phase is over.
func (e *Engine) takeNext() (Action, bool) {
	if e.fatal != nil || e.stopped || e.shuttingDown {
		return nil, false
	}
	ev, ok := e.popNext()
	if !ok {
		return nil, false
	}
	e.now = ev.at
	e.fired++
	return ev.act, true
}

// driveInline runs a popped callback or step, and every one after it, until
// an event resumes a goroutine process, which it returns, or the phase
// ends. A panic raised by a callback or step is recovered here, recorded as
// the fatal error naming its source, and ends the phase, so it surfaces
// from Run whichever goroutine was driving — never from a process's stack,
// which would blame that process or, on a finished process's exit path,
// escape every recover.
func (e *Engine) driveInline(act Action) (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fatal = e.wrapPanic(r, nil)
			next = nil
		}
	}()
	for {
		switch a := act.(type) {
		case callback:
			a()
		case *wake:
			if a.step == nil {
				return (*Proc)(a)
			}
			e.runStep((*Proc)(a))
		default:
			a.Fire()
		}
		var ok bool
		if act, ok = e.takeNext(); !ok {
			return nil
		}
	}
}

// runStep calls a step process's step, marking it as the firing source.
func (e *Engine) runStep(p *Proc) {
	e.firing = p
	p.step(p)
	e.firing = nil
}

// wrapPanic names a recovered panic's source: the step that was running if
// any, else src (the process whose own code panicked), else an event
// callback. A value that is already wrapped, or a stall report, passes
// through.
func (e *Engine) wrapPanic(r any, src *Proc) error {
	switch err := r.(type) {
	case *procPanic:
		return err
	case *stallError:
		return err
	}
	if e.firing != nil {
		src = e.firing
		e.firing = nil
	}
	if src != nil {
		return &procPanic{proc: src.name, value: r}
	}
	return &procPanic{at: e.now, value: r}
}

// exitDrive continues the event loop on a process goroutine whose function
// has returned (or panicked). The goroutine drives until control belongs
// somewhere else — another process, or the Run caller when the phase is over
// or a fatal panic is pending — and then exits.
func (e *Engine) exitDrive() {
	if next := e.drive(); next != nil {
		e.handoffs++
		next.handoff <- struct{}{}
		return
	}
	e.mainWake <- struct{}{}
}

// Shutdown unwinds every still-blocked process goroutine and retires every
// step process. Call it after the final Run of a simulation so perpetual
// server processes do not leak goroutines; the engine must not be used
// afterwards.
func (e *Engine) Shutdown() {
	e.shuttingDown = true
	for _, p := range e.all {
		if p.step != nil && !p.done {
			// No goroutine to unwind: the step simply never runs again.
			p.done = true
			p.waiting = false
			e.procs--
			continue
		}
		if !p.done {
			p.killed = true
			p.waiting = false
			// Resume the parked goroutine so it unwinds; its exit path sees
			// shuttingDown and signals back instead of driving the queue.
			p.handoff <- struct{}{}
			<-e.mainWake
		}
	}
	e.all = nil
	e.shuttingDown = false
}

// SetTraceSink installs a typed trace sink; nil disables tracing.
func (e *Engine) SetTraceSink(sink TraceSink) {
	e.sink = sink
	e.tracing = sink != nil
}

// Tracing reports whether a trace sink is installed. Hot paths should
// check it before building event arguments:
//
//	if eng.Tracing() {
//		eng.Emit("packet", "send", name, fmt.Sprintf(...))
//	}
func (e *Engine) Tracing() bool { return e.tracing }

// Emit delivers a typed trace event at the current simulated time. The
// Detail formatting cost is on the caller, so guard call sites with
// Tracing().
func (e *Engine) Emit(cat, name, comp, detail string) {
	if e.tracing {
		e.sink(TraceEvent{At: e.now, Cat: cat, Name: name, Comp: comp, Detail: detail})
	}
}

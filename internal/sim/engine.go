package sim

import "fmt"

// event is a scheduled action. Events with equal times fire in scheduling
// order (seq), which keeps the simulation deterministic.
//
// Events live in the engine's pool and are addressed by index, never by
// pointer: the pool is a single slice that grows to the simulation's
// high-water mark and is then recycled through a free list, so steady-state
// scheduling does not allocate. An event fires an Action: a plain callback
// (Schedule), a typed action (Post), or a process wake, which resumes the
// process instead of firing. Every form rides in the record as one
// interface value, so none needs a per-event closure.
type event struct {
	at  Time
	seq int64
	// act is the action to fire, nil once the event is cancelled or freed.
	act Action
	// heapIdx is the event's position in the engine's heap, heapNone once
	// popped or freed, or heapRunq while the event sits in the run queue.
	heapIdx int32
	// next links free pool slots.
	next int32
}

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

const (
	heapNone = -1
	heapRunq = -2
)

// timer identifies a scheduled event so in-package callers (the sampler) can
// cancel it. The seq field guards against the pool slot having been recycled
// for a newer event.
type timer struct {
	idx int32
	seq int64
}

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

	// pool holds every event slot ever allocated by this engine; free heads
	// the list of recycled slots (-1 when empty).
	pool []event
	free int32

	// heap is a 4-ary min-heap of pool indices ordered by (at, seq). The
	// wide fan-out halves the tree depth of the old binary heap and keeps
	// sift-down's child scan inside one cache line of indices.
	heap []int32

	// runq is the same-time FIFO: events scheduled at the current instant —
	// the dominant case, from unpark, Proc wake-ups and zero-delay sleeps —
	// bypass the heap entirely. Entries before runqHead have been consumed.
	// Appending in seq order keeps the queue (at, seq)-sorted, so its head
	// competes with the heap top by a single comparison.
	runq     []int32
	runqHead int

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
	// step or an event callback, on whichever goroutine — re-raised from Run
	// by the main driver when control returns to it.
	fatal *procPanic
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
	e.free = heapNone
	e.mainWake = make(chan struct{})
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// LiveProcs reports how many spawned processes have not yet returned.
func (e *Engine) LiveProcs() int { return e.procs }

// Events reports how many events have fired — the simulation's work metric.
func (e *Engine) Events() int64 { return e.fired }

// Handoffs reports how many times control has passed from the driving
// goroutine to a different process goroutine: a channel send and receive
// each, against a function call for a callback, a step or a process that
// wakes itself. Handing control back to the Run caller at the end of a
// phase is not counted.
func (e *Engine) Handoffs() int64 { return e.handoffs }

// pending reports how many events are queued (heap plus live run queue).
func (e *Engine) pending() int { return len(e.heap) + len(e.runq) - e.runqHead }

// alloc takes a pool slot from the free list, growing the pool only until
// the simulation reaches its high-water mark of in-flight events.
func (e *Engine) alloc() int32 {
	if idx := e.free; idx != heapNone {
		e.free = e.pool[idx].next
		return idx
	}
	e.pool = append(e.pool, event{})
	return int32(len(e.pool) - 1)
}

// release returns a fired or cancelled event's slot to the free list. The
// action reference is dropped so the pool does not pin dead state, and seq
// is zeroed so stale timers can never match a recycled slot.
func (e *Engine) release(idx int32) {
	ev := &e.pool[idx]
	ev.act = nil
	ev.seq = 0
	ev.heapIdx = heapNone
	ev.next = e.free
	e.free = idx
}

// Schedule runs fn at the given absolute time, which must not be in the
// past.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, callback(fn))
}

// Post fires a at the given absolute time, which must not be in the past.
func (e *Engine) Post(at Time, a Action) {
	e.schedule(at, a)
}

// schedule queues an action or a process wake and returns a timer handle so
// in-package callers (the sampler) can cancel it.
func (e *Engine) schedule(at Time, a Action) timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now))
	}
	e.seq++
	idx := e.alloc()
	ev := &e.pool[idx]
	ev.at = at
	ev.seq = e.seq
	ev.act = a
	// Same-time events take the FIFO run queue instead of the heap. The
	// tail check keeps the queue (at, seq)-sorted even if the clock was
	// rewound by a Stop/RunUntil edge case, so pop order is always the
	// global (at, seq) minimum — identical to the old single-heap order.
	if at == e.now && (e.runqHead == len(e.runq) || e.pool[e.runq[len(e.runq)-1]].at <= at) {
		ev.heapIdx = heapRunq
		e.runq = append(e.runq, idx)
	} else {
		e.heapPush(idx)
	}
	return timer{idx: idx, seq: e.seq}
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

// cancel discards a queued event: heap entries are removed in place (no
// tombstone lingers to be sifted through later), run-queue entries are
// blanked and reclaimed when their turn comes. Cancelling an event that has
// already fired — or whose slot was recycled — is a no-op.
func (e *Engine) cancel(t timer) {
	if t.idx < 0 || int(t.idx) >= len(e.pool) {
		return
	}
	ev := &e.pool[t.idx]
	if ev.seq != t.seq {
		return
	}
	if ev.heapIdx >= 0 {
		e.heapRemove(int(ev.heapIdx))
		e.release(t.idx)
		return
	}
	if ev.heapIdx == heapRunq {
		ev.act = nil
	}
}

// Stop makes Run return after the current event completes. Pending events
// remain queued.
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
// clock to the deadline (if the simulation did not already pass it).
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	e.deadline = deadline
	e.driveMain()
	if e.now < deadline {
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

// nextEventTime reports the earliest pending event's timestamp. Cancelled
// run-queue entries at the head are reclaimed on the way, so dead timers
// cannot masquerade as pending work.
func (e *Engine) nextEventTime() (Time, bool) {
	for e.runqHead < len(e.runq) {
		idx := e.runq[e.runqHead]
		if e.pool[idx].act != nil {
			break
		}
		e.runqHead++
		if e.runqHead == len(e.runq) {
			e.runq = e.runq[:0]
			e.runqHead = 0
		}
		e.release(idx)
	}
	best, ok := Time(0), false
	if e.runqHead < len(e.runq) {
		best, ok = e.pool[e.runq[e.runqHead]].at, true
	}
	if len(e.heap) > 0 {
		if at := e.pool[e.heap[0]].at; !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// queuedBy counts the queued events at or before deadline, stopping at
// limit. It walks the run queue from its head, then the heap, skipping every
// subtree whose root lies past the deadline (the heap orders each child
// after its parent), so it visits O(limit) slots and allocates nothing. The
// Group calls it at barriers to size a round's windows.
func (e *Engine) queuedBy(deadline Time, limit int) int {
	n := 0
	for i := e.runqHead; i < len(e.runq) && n < limit; i++ {
		ev := &e.pool[e.runq[i]]
		if ev.at > deadline {
			return n
		}
		if ev.act != nil { // skip cancelled entries
			n++
		}
	}
	if n < limit && len(e.heap) > 0 && e.pool[e.heap[0]].at <= deadline {
		n += e.heapQueuedBy(0, deadline, limit-n)
	}
	return n
}

// heapQueuedBy counts the entries at or before deadline in the heap subtree
// rooted at position i, whose own entry is one of them, stopping at limit.
func (e *Engine) heapQueuedBy(i int, deadline Time, limit int) int {
	n := 1
	for c := i<<2 + 1; c <= i<<2+4 && c < len(e.heap) && n < limit; c++ {
		if e.pool[e.heap[c]].at <= deadline {
			n += e.heapQueuedBy(c, deadline, limit-n)
		}
	}
	return n
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
			if pp := e.fatal; pp != nil {
				e.fatal = nil
				panic(pp)
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

// takeNext pops the phase's next event and consumes it; ok is false when
// the phase is over.
func (e *Engine) takeNext() (Action, bool) {
	if e.fatal != nil || e.stopped || e.shuttingDown {
		return nil, false
	}
	idx, ok := e.popNext()
	if !ok {
		return nil, false
	}
	return e.take(idx), true
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
// callback. A value that is already wrapped passes through.
func (e *Engine) wrapPanic(r any, src *Proc) *procPanic {
	if pp, ok := r.(*procPanic); ok {
		return pp
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

// popNext removes and returns the earliest pending event within the phase
// deadline. The earliest event is the (at, seq) minimum of the heap top and
// the run-queue head; both structures order their own contents, so choosing
// between them is one comparison.
func (e *Engine) popNext() (int32, bool) {
	for {
		// End-of-instant settle: once no event remains at the current time,
		// promote pending hooks (oldest first) before letting the clock move
		// or the phase end. A promoted hook lands in the run queue at e.now,
		// so it is popped immediately — and any same-instant work it creates
		// drains before the next hook is promoted.
		if e.settleHead < len(e.settleq) {
			if at, ok := e.nextEventTime(); !ok || at > e.now {
				e.promoteSettle()
				continue
			}
		}
		var idx int32
		if e.runqHead < len(e.runq) {
			idx = e.runq[e.runqHead]
			if len(e.heap) > 0 && e.eventLess(e.heap[0], idx) {
				if e.pool[e.heap[0]].at > e.deadline {
					return 0, false
				}
				idx = e.heapPop()
			} else {
				if e.pool[idx].at > e.deadline {
					return 0, false
				}
				e.runqHead++
				if e.runqHead == len(e.runq) {
					e.runq = e.runq[:0]
					e.runqHead = 0
				}
			}
		} else if len(e.heap) > 0 {
			if e.pool[e.heap[0]].at > e.deadline {
				return 0, false
			}
			idx = e.heapPop()
		} else {
			return 0, false
		}

		if e.pool[idx].act == nil { // cancelled in the run queue
			e.release(idx)
			continue
		}
		return idx, true
	}
}

// take consumes a popped event: advances the clock, counts the firing,
// recycles the pool slot and returns the action to perform.
func (e *Engine) take(idx int32) Action {
	ev := &e.pool[idx]
	e.now = ev.at
	e.fired++
	act := ev.act
	e.release(idx)
	return act
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

// eventLess orders pool entries by (at, seq) — the simulation's total event
// order.
func (e *Engine) eventLess(a, b int32) bool {
	ea, eb := &e.pool[a], &e.pool[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush inserts a pool index into the 4-ary heap.
func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	e.heapUp(len(e.heap) - 1)
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		e.pool[last].heapIdx = 0
		e.heapDown(0)
	}
	e.pool[top].heapIdx = heapNone
	return top
}

// heapRemove deletes the entry at heap position i (cancellation).
func (e *Engine) heapRemove(i int) {
	h := e.heap
	n := len(h) - 1
	removed := h[i]
	last := h[n]
	e.heap = h[:n]
	if i < n {
		e.heap[i] = last
		e.pool[last].heapIdx = int32(i)
		e.heapUp(e.heapDown(i))
	}
	e.pool[removed].heapIdx = heapNone
}

// heapUp sifts the entry at position i toward the root.
func (e *Engine) heapUp(i int) {
	h := e.heap
	idx := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.eventLess(idx, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.pool[h[i]].heapIdx = int32(i)
		i = parent
	}
	h[i] = idx
	e.pool[idx].heapIdx = int32(i)
}

// heapDown sifts the entry at position i toward the leaves and returns its
// final position.
func (e *Engine) heapDown(i int) int {
	h := e.heap
	n := len(h)
	idx := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.eventLess(h[c], h[best]) {
				best = c
			}
		}
		if !e.eventLess(h[best], idx) {
			break
		}
		h[i] = h[best]
		e.pool[h[i]].heapIdx = int32(i)
		i = best
	}
	h[i] = idx
	e.pool[idx].heapIdx = int32(i)
	return i
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

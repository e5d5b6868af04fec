package sim

import (
	"cmp"
	"slices"
	"testing"
)

// refKey is an event's place in the total order: (at, seq).
type refKey struct {
	at  Time
	seq int64
}

func (k refKey) compare(o refKey) int {
	if c := cmp.Compare(k.at, o.at); c != 0 {
		return c
	}
	return cmp.Compare(k.seq, o.seq)
}

// queueProgram is one seeded run against the event queue, with a plain
// reference beside it: queued holds every event the engine should still
// hold, and log every event it should ever fire.
type queueProgram struct {
	t      *testing.T
	e      *Engine
	r      *Rand
	budget int // events left to schedule
	queued map[int64]Time
	log    []refKey
	fired  []refKey
	// recurring are the program's repeated delays, more than there are
	// delay lanes.
	recurring []Time
	// pZero, pRecurring: per-mille odds of a zero and of a recurring delay;
	// the rest are one-off delays.
	pZero, pRecurring int

	cov *queueCoverage
}

// queueCoverage records which queue paths the programs reached, so the
// property test can show it exercised each one.
type queueCoverage struct {
	laneDelays    [1 + delayLanes]map[Time]bool // delays each lane was claimed by
	heapEvents    int
	stoppedPhases int
	boundaries    int
}

// queueEvent is a program event; it records its firing and schedules more.
type queueEvent struct {
	p   *queueProgram
	seq int64
}

func (ev *queueEvent) Fire() { ev.p.fire(ev) }

// delay draws a delay from the program's mix.
func (p *queueProgram) delay() Time {
	switch x := p.r.Intn(1000); {
	case x < p.pZero:
		return 0
	case x < p.pZero+p.pRecurring:
		return p.recurring[p.r.Intn(len(p.recurring))]
	default:
		return Time(1 + p.r.Intn(int(2*Microsecond)))
	}
}

// schedule queues one event at now+d in the engine and in the reference.
func (p *queueProgram) schedule(d Time) {
	p.budget--
	ev := &queueEvent{p: p}
	at := p.e.now + d
	p.e.schedule(at, ev)
	ev.seq = p.e.seq
	p.queued[ev.seq] = at
	p.log = append(p.log, refKey{at, ev.seq})
	for i := range p.e.lanes {
		if p.e.busy&(1<<i) != 0 {
			p.cov.laneDelays[i][p.e.lanes[i].delay] = true
		}
	}
	p.cov.heapEvents = max(p.cov.heapEvents, len(p.e.heap))
}

func (p *queueProgram) fire(ev *queueEvent) {
	at, ok := p.queued[ev.seq]
	if !ok {
		p.t.Fatalf("event %d fired but is not queued", ev.seq)
	}
	if at != p.e.now {
		p.t.Fatalf("event %d due at %v fired at %v", ev.seq, at, p.e.now)
	}
	delete(p.queued, ev.seq)
	p.fired = append(p.fired, refKey{at, ev.seq})
	for n := p.r.Intn(4); n > 0 && p.budget > 0; n-- {
		p.schedule(p.delay())
	}
	if p.r.Intn(1000) == 0 {
		p.e.Stop()
	}
}

// check compares the engine's view of its queue with the reference.
func (p *queueProgram) check(phase string) {
	p.cov.boundaries++
	if got, want := p.e.pending(), len(p.queued); got != want {
		p.t.Fatalf("%s: pending() = %d, want %d", phase, got, want)
	}
	next, ok := Forever, false
	for _, at := range p.queued {
		next, ok = min(next, at), true
	}
	if got, gotOK := p.e.nextEventTime(); got != next && ok || gotOK != ok {
		p.t.Fatalf("%s: nextEventTime() = %v, %v, want %v, %v", phase, got, gotOK, next, ok)
	}
	now := p.e.now
	for _, d := range []Time{now, now + p.recurring[0], now + 600*Nanosecond, next - 1, next, Forever} {
		by := 0
		for _, at := range p.queued {
			if at <= d {
				by++
			}
		}
		for _, limit := range []int{1, 3, 1 << 20} {
			if got, want := p.e.queuedBy(d, limit), min(by, limit); got != want {
				p.t.Fatalf("%s: queuedBy(%v, %d) = %d, want %d", phase, d, limit, got, want)
			}
		}
	}
}

// runQueueProgram runs one seeded program to the end and checks it.
func runQueueProgram(t *testing.T, seed uint64, cov *queueCoverage) {
	r := NewRand(seed)
	p := &queueProgram{
		t:          t,
		e:          NewEngine(),
		r:          r,
		budget:     400 + r.Intn(400),
		queued:     map[int64]Time{},
		recurring:  []Time{26 * Nanosecond, 100 * Nanosecond, 528 * Nanosecond, 7 * Nanosecond, 40 * Nanosecond, 3 * Nanosecond},
		pZero:      100 + r.Intn(300),
		pRecurring: 400 + r.Intn(400),
		cov:        cov,
	}
	for i := 0; i < 4+r.Intn(8); i++ {
		p.schedule(p.delay())
	}
	for phase := 0; p.e.pending() > 0; phase++ {
		// Inject from outside any event too, as a Group barrier does.
		for n := r.Intn(3); n > 0 && p.budget > 0; n-- {
			p.schedule(p.delay())
		}
		before := p.e.now
		deadline := before + Time(r.Intn(2000))*Nanosecond/4
		var name string
		switch r.Intn(3) {
		case 0:
			name = "RunUntil"
			p.e.RunUntil(deadline)
		case 1:
			name = "runWindow"
			p.e.runWindow(deadline)
		default:
			name = "Run"
			deadline = Forever
			p.e.Run()
		}
		if p.e.now < before {
			t.Fatalf("seed %d phase %d: %s moved the clock back from %v to %v", seed, phase, name, before, p.e.now)
		}
		if p.e.stopped {
			cov.stoppedPhases++
		} else {
			for seq, at := range p.queued {
				if at <= deadline {
					t.Fatalf("seed %d phase %d: %s(%v) left event %d at %v queued", seed, phase, name, deadline, seq, at)
				}
			}
		}
		p.check(name)
	}
	slices.SortFunc(p.log, refKey.compare)
	if !slices.Equal(p.fired, p.log) {
		t.Fatalf("seed %d: fired %d events, reference log holds %d; order differs", seed, len(p.fired), len(p.log))
	}
}

// TestEventQueueMatchesReference runs seeded programs whose events schedule
// more events, from their callbacks and between phases, with a mix of
// delays: zero, more recurring delays than there are delay lanes (so lanes
// are claimed, drained and claimed again), and one-off delays. Events
// sometimes Stop the phase, and the phases alternate Run, RunUntil and
// runWindow. The fired (at, seq) sequence must equal the sorted log of
// every event scheduled, and at every phase boundary pending,
// nextEventTime and queuedBy must agree with the reference's set of queued
// events.
func TestEventQueueMatchesReference(t *testing.T) {
	cov := &queueCoverage{}
	for i := range cov.laneDelays {
		cov.laneDelays[i] = map[Time]bool{}
	}
	for seed := uint64(1); seed <= 256; seed++ {
		runQueueProgram(t, seed, cov)
	}
	if len(cov.laneDelays[0]) != 1 || !cov.laneDelays[0][0] {
		t.Errorf("the run queue held delays %v, want only 0", cov.laneDelays[0])
	}
	for i := 1; i <= delayLanes; i++ {
		if len(cov.laneDelays[i]) < 3 {
			t.Errorf("delay lane %d served delays %v, want several", i, cov.laneDelays[i])
		}
	}
	served := make([]int, len(cov.laneDelays))
	for i, delays := range cov.laneDelays {
		served[i] = len(delays)
	}
	t.Logf("distinct delays per lane %v; peak heap %d; %d stopped phases of %d",
		served, cov.heapEvents, cov.stoppedPhases, cov.boundaries)
	if cov.heapEvents < 10 || cov.stoppedPhases == 0 {
		t.Errorf("programs missed a path: %+v", *cov)
	}
}

// TestLaneStaysBounded: a lane that never drains — three events chained at
// one constant delay, so at least two always wait in it — must reuse its
// consumed slots. Over a million events its buffer stays within a fixed
// bound instead of growing with every event that has passed through it.
func TestLaneStaysBounded(t *testing.T) {
	const (
		delay  = 528 * Nanosecond
		events = 1_000_000
		bound  = 16
	)
	e := NewEngine()
	longest, inLane := 0, 0
	var fire func()
	fire = func() {
		if e.fired <= events {
			e.Schedule(e.now+delay, fire)
		}
		for i := range e.lanes {
			longest = max(longest, cap(e.lanes[i].buf))
			if q := &e.lanes[i]; i > 0 && q.delay == delay && q.len() >= 2 {
				inLane++
			}
		}
	}
	for i := Time(0); i < 3; i++ {
		e.Schedule(i, fire)
	}
	e.Run()
	if e.Events() < events {
		t.Fatalf("only %d events fired", e.Events())
	}
	if inLane < events-3 {
		t.Fatalf("the chain sat in a lane with two or more events at %d of %d firings", inLane, e.Events())
	}
	if longest > bound {
		t.Fatalf("a lane's buffer grew to %d slots, want at most %d", longest, bound)
	}
}

package sim

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
)

// Step processes must be indistinguishable from goroutine processes: the
// fabric's port, NIC and storage engines and the active switch's dispatch
// unit were converted from blocking loops on the promise that a step
// machine making the same schedule calls leaves the (at, seq) dispatch
// order untouched. The property test below runs seeded random programs over
// every primitive with a non-blocking form, once with every actor a
// goroutine process, once with every actor a step process and once mixed,
// and requires identical action logs and event counts. Because the blocking
// primitives are built on the non-blocking forms, a defect shared by both
// would pass the comparison; the goroutine runs are therefore also pinned to
// a digest.

type opKind int

const (
	opSleep   opKind = iota // Sleep(arg ns)
	opPut                   // queue res: Put(arg)
	opGet                   // queue res: Get
	opAcquire               // semaphore res: Acquire
	opRelease               // semaphore res: Release
	opJoin                  // arbiter: Join(arg)
	opDeliver               // arbiter: Join(arg), then Sleep(1 ns)
	opWait                  // signal res: Wait
	opFire                  // signal res: Fire
	numOps
)

type progOp struct {
	kind opKind
	res  int
	arg  int
}

// stepProgram is one random scenario: per-actor programs over two queues,
// two semaphores, two signals and an arbiter, plus engine callbacks that
// feed them.
type stepProgram struct {
	actors  [][]progOp
	permits [2]int
	feeds   []progOp // opPut, opRelease or opFire, fired at Time(arg) ns
	mixed   []bool   // per actor, for the mixed run: true = step process
}

func genStepProgram(seed uint64) stepProgram {
	r := NewRand(seed)
	var sp stepProgram
	sp.permits = [2]int{r.Intn(3), r.Intn(3)}
	n := 2 + r.Intn(4)
	for a := 0; a < n; a++ {
		prog := make([]progOp, 4+r.Intn(12))
		for i := range prog {
			o := progOp{kind: opKind(r.Intn(int(numOps))), res: r.Intn(2)}
			switch o.kind {
			case opSleep:
				o.arg = r.Intn(4)
			case opPut:
				o.arg = 100*a + i
			case opJoin, opDeliver:
				o.arg = r.Intn(4)
			}
			prog[i] = o
		}
		sp.actors = append(sp.actors, prog)
		sp.mixed = append(sp.mixed, r.Intn(2) == 0)
	}
	for i := r.Intn(6); i > 0; i-- {
		kind := [...]opKind{opPut, opRelease, opFire}[r.Intn(3)]
		sp.feeds = append(sp.feeds, progOp{kind: kind, res: r.Intn(2), arg: r.Intn(12)})
	}
	return sp
}

// stepWorld is one run of a program: the shared resources and the log.
type stepWorld struct {
	e       *Engine
	q       [2]*Queue[int]
	s       [2]*Semaphore
	sig     [2]*Signal
	arb     *Arbiter
	log     []string
	runaway bool
}

// stepWakeCap bounds each step actor's wakes: no program needs more than a
// few per op, so a step past it is spinning and the run is stopped.
const stepWakeCap = 1000

func (w *stepWorld) note(actor, format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d %s %s", w.e.Now(), actor, fmt.Sprintf(format, args...)))
}

// runStepProgram runs sp with each actor a step process where asStep says
// so, and returns the log and the event count.
func runStepProgram(t *testing.T, sp stepProgram, asStep func(a int) bool) ([]string, int64, bool) {
	t.Helper()
	w := &stepWorld{e: NewEngine()}
	w.arb = NewArbiter(w.e)
	for i := range w.q {
		w.q[i] = NewQueue[int]()
		w.s[i] = NewSemaphore(sp.permits[i])
		w.sig[i] = NewSignal()
	}
	for _, f := range sp.feeds {
		f := f
		w.e.Schedule(Time(f.arg)*Nanosecond, func() {
			switch f.kind {
			case opPut:
				w.q[f.res].Put(-1)
				w.note("feed", "put q%d", f.res)
			case opRelease:
				w.s[f.res].Release()
				w.note("feed", "release s%d", f.res)
			case opFire:
				w.sig[f.res].Fire()
				w.note("feed", "fire g%d", f.res)
			}
		})
	}
	for a, prog := range sp.actors {
		name := fmt.Sprintf("a%d", a)
		if asStep(a) {
			sa := &stepActor{w: w, name: name, prog: prog}
			w.e.SpawnStep(name, sa.step)
			continue
		}
		prog := prog
		w.e.Spawn(name, func(p *Proc) { w.runGoroutine(p, name, prog) })
	}
	w.e.Run()
	events := w.e.Events()
	w.e.Shutdown()
	if n := w.e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", n)
	}
	return w.log, events, w.runaway
}

// runGoroutine is an actor as a blocking goroutine process.
func (w *stepWorld) runGoroutine(p *Proc, name string, prog []progOp) {
	for _, o := range prog {
		switch o.kind {
		case opSleep:
			p.Sleep(Time(o.arg) * Nanosecond)
			w.note(name, "slept")
		case opPut:
			w.q[o.res].Put(o.arg)
			w.note(name, "put q%d %d", o.res, o.arg)
		case opGet:
			v := w.q[o.res].Get(p)
			w.note(name, "got q%d %d", o.res, v)
		case opAcquire:
			w.s[o.res].Acquire(p)
			w.note(name, "acquired s%d", o.res)
		case opRelease:
			w.s[o.res].Release()
			w.note(name, "released s%d", o.res)
		case opJoin:
			w.arb.Join(p, o.arg)
			w.note(name, "granted %d", o.arg)
		case opDeliver:
			w.arb.Join(p, o.arg)
			p.Sleep(Nanosecond)
			w.note(name, "delivered %d", o.arg)
		case opWait:
			w.sig[o.res].Wait(p)
			w.note(name, "woke g%d", o.res)
		case opFire:
			w.sig[o.res].Fire()
			w.note(name, "fired g%d", o.res)
		}
	}
	w.note(name, "done")
}

// stepActor is the same actor as a step machine: pc is the op in progress
// and stage counts the waits of it already arranged, so the next wake
// completes the next one. opDeliver joins and then sleeps on the actor's own
// process, as a switch input port runs its local delivery.
type stepActor struct {
	w     *stepWorld
	name  string
	prog  []progOp
	pc    int
	stage int
	calls int
}

func (sa *stepActor) step(p *Proc) {
	w := sa.w
	if sa.calls++; sa.calls > stepWakeCap {
		w.runaway = true
		w.e.Stop()
		return
	}
	for sa.pc < len(sa.prog) {
		o := sa.prog[sa.pc]
		switch o.kind {
		case opSleep:
			if sa.stage == 0 {
				sa.stage = 1
				p.WakeAt(p.Now() + Time(o.arg)*Nanosecond)
				return
			}
			w.note(sa.name, "slept")
		case opPut:
			w.q[o.res].Put(o.arg)
			w.note(sa.name, "put q%d %d", o.res, o.arg)
		case opGet:
			v, ok := w.q[o.res].GetOrWait(p)
			if !ok {
				return
			}
			w.note(sa.name, "got q%d %d", o.res, v)
		case opAcquire:
			if !w.s[o.res].AcquireOrWait(p) {
				return
			}
			w.note(sa.name, "acquired s%d", o.res)
		case opRelease:
			w.s[o.res].Release()
			w.note(sa.name, "released s%d", o.res)
		case opJoin:
			if sa.stage == 0 {
				sa.stage = 1
				w.arb.JoinOrWait(p, o.arg)
				return
			}
			w.note(sa.name, "granted %d", o.arg)
		case opDeliver:
			switch sa.stage {
			case 0:
				sa.stage = 1
				w.arb.JoinOrWait(p, o.arg)
				return
			case 1:
				sa.stage = 2
				p.WakeAt(p.Now() + Nanosecond)
				return
			}
			w.note(sa.name, "delivered %d", o.arg)
		case opWait:
			if sa.stage == 0 {
				sa.stage = 1
				w.sig[o.res].AddWaiter(p)
				return
			}
			w.note(sa.name, "woke g%d", o.res)
		case opFire:
			w.sig[o.res].Fire()
			w.note(sa.name, "fired g%d", o.res)
		}
		sa.pc++
		sa.stage = 0
	}
	w.note(sa.name, "done")
}

// stepEquivDigest pins the goroutine runs of seeds 1..stepEquivSeeds.
const (
	stepEquivSeeds  = 300
	stepEquivDigest = 0x20494aad22d44612
)

func TestStepProcessesMatchGoroutines(t *testing.T) {
	h := fnv.New64a()
	for seed := uint64(1); seed <= stepEquivSeeds; seed++ {
		sp := genStepProgram(seed)
		// Steps first: a runaway step machine is capped, so a broken
		// non-blocking primitive fails here instead of hanging a
		// goroutine run built on the same primitive.
		stepLog, stepEv, runaway := runStepProgram(t, sp, func(int) bool { return true })
		if runaway {
			t.Fatalf("seed %d: a step process ran away (over %d wakes)", seed, stepWakeCap)
		}
		mixLog, mixEv, runaway := runStepProgram(t, sp, func(a int) bool { return sp.mixed[a] })
		if runaway {
			t.Fatalf("seed %d: a step process ran away in the mixed run", seed)
		}
		goLog, goEv, _ := runStepProgram(t, sp, func(int) bool { return false })
		for _, run := range []struct {
			name string
			log  []string
			ev   int64
		}{{"step", stepLog, stepEv}, {"mixed", mixLog, mixEv}} {
			if run.ev != goEv {
				t.Fatalf("seed %d: %s run fired %d events, goroutine run %d", seed, run.name, run.ev, goEv)
			}
			if !slices.Equal(run.log, goLog) {
				t.Fatalf("seed %d: %s run diverged:\n%s\ngoroutine run:\n%s",
					seed, run.name, strings.Join(run.log, "\n"), strings.Join(goLog, "\n"))
			}
		}
		fmt.Fprintf(h, "%d %d\n%s\n", seed, goEv, strings.Join(goLog, "\n"))
	}
	if got := h.Sum64(); got != stepEquivDigest {
		t.Fatalf("goroutine runs digest %#x, want %#x", got, uint64(stepEquivDigest))
	}
}

// recoverRun runs fn, which must panic with the engine's wrapped error.
func recoverRun(t *testing.T, fn func()) (pp *procPanic) {
	t.Helper()
	defer func() {
		r := recover()
		var ok bool
		if pp, ok = r.(*procPanic); !ok {
			t.Fatalf("raised %v (%T), want a *procPanic", r, r)
		}
	}()
	fn()
	return nil
}

// panicStep is a step process that arranges one wake at t and panics on it.
func panicStep(t Time) func(*Proc) {
	armed := false
	return func(p *Proc) {
		if !armed {
			armed = true
			p.WakeAt(t)
			return
		}
		panic("boom")
	}
}

// A panic raised while the engine drives — in an event callback or a step,
// fired from the Run caller's loop (main), a blocked process's loop (block)
// or a finished process's exit path (exit) — surfaces from Run and RunUntil
// as one wrapped error naming its source, and leaves every process
// resumable.
func TestPanicSurfacesFromEveryDrivePath(t *testing.T) {
	for _, entry := range []string{"Run", "RunUntil"} {
		for _, path := range []string{"main", "block", "exit"} {
			for _, src := range []string{"callback", "step"} {
				t.Run(entry+"/"+path+"/"+src, func(t *testing.T) {
					e := NewEngine()
					run := e.Run
					if entry == "RunUntil" {
						run = func() Time { return e.RunUntil(10 * Nanosecond) }
					}
					resumed := false
					var sleeper *Proc
					switch path {
					case "block":
						sleeper = e.Spawn("sleeper", func(p *Proc) {
							p.Sleep(2 * Nanosecond)
							resumed = true
						})
					case "exit":
						e.Spawn("short", func(*Proc) {})
					}
					if src == "callback" {
						e.Schedule(Nanosecond, func() { panic("boom") })
					} else {
						e.SpawnStep("st", panicStep(Nanosecond))
					}
					pp := recoverRun(t, func() { run() })
					want := &procPanic{proc: "st", value: "boom"}
					if src == "callback" {
						want = &procPanic{at: Nanosecond, value: "boom"}
					}
					if *pp != *want {
						t.Fatalf("surfaced %v, want %v", pp, want)
					}
					// The panic blamed nobody else: a process that was
					// blocked when it struck is still alive and resumes on
					// the next run.
					if sleeper != nil && sleeper.Done() {
						t.Fatal("the panic unwound the blocked process")
					}
					run()
					if path == "block" && !resumed {
						t.Fatal("the blocked process never resumed")
					}
					e.Shutdown()
					if n := e.LiveProcs(); n != 0 {
						t.Fatalf("LiveProcs = %d after Shutdown", n)
					}
				})
			}
		}
	}
}

// A step that calls a blocking primitive has no goroutine to park: it fails
// loudly, named, instead of deadlocking the engine.
func TestStepThatBlocksPanics(t *testing.T) {
	e := NewEngine()
	e.SpawnStep("st", func(p *Proc) { p.Sleep(Nanosecond) })
	pp := recoverRun(t, func() { e.Run() })
	if pp.proc != "st" || !strings.Contains(fmt.Sprint(pp.value), "blocked") {
		t.Fatalf("surfaced %v, want the step named as blocking", pp)
	}
	e.Shutdown()
}

// A step panicking inside a partition window surfaces from Group.Run as the
// wrapped error naming the step, under every dispatch mode.
func TestGroupStepPanicNamesStep(t *testing.T) {
	for _, d := range allDispatch {
		g := NewGroup(2)
		g.SetDispatch(d)
		g.Engine(1).SpawnStep("sw.in0", panicStep(5))
		pp := recoverRun(t, func() { g.Run() })
		if pp.proc != "sw.in0" || pp.value != "boom" {
			t.Fatalf("dispatch %v: surfaced %v, want the step named", d, pp)
		}
		g.Shutdown()
	}
}

// Shutdown retires live step processes, leaving no live process.
func TestShutdownRetiresSteps(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var steps []*Proc
	for i := 0; i < 3; i++ {
		steps = append(steps, e.SpawnStep("st", func(p *Proc) { q.GetOrWait(p) }))
	}
	e.Run()
	if n := e.LiveProcs(); n != 3 {
		t.Fatalf("LiveProcs = %d before Shutdown, want 3", n)
	}
	e.Shutdown()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", n)
	}
	for _, p := range steps {
		if !p.Done() {
			t.Fatalf("%s not done after Shutdown", p.Name())
		}
	}
}

// Done reports whether the process function has returned (for a step
// process: whether Shutdown has retired it).
func (p *Proc) Done() bool { return p.done }

package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// The dispatch tests pin the promise behind Group.SetDispatch: windows
// within a round are independent, so running them inline on the
// coordinator, concurrently on the workers, or adaptively by window size
// leaves every log, end time and event count unchanged, and the adaptive
// choice itself is a pure function of simulation state.

// logEntry is one action a group program recorded on its rank.
type logEntry struct {
	at    Time
	actor int32
	what  int32
}

// groupRun is what one run of a group program leaves behind.
type groupRun struct {
	logs       [][]logEntry // per rank, in firing order
	end        Time
	rounds     int64
	evTotal    int64
	evCrit     int64
	concRounds int64
}

// rankState is everything one rank's actors touch. Deliveries and credits
// run on the engine that receives them and touch only that rank's state, so
// concurrent windows share nothing.
type rankState struct {
	eng  *Engine
	rng  *Rand
	log  []logEntry
	out  []*Channel // channels this rank sends deliveries on
	last []Time     // per out channel, the latest arrival posted
}

func (rs *rankState) note(actor, what int) {
	rs.log = append(rs.log, logEntry{at: rs.eng.now, actor: int32(actor), what: int32(what)})
}

// runGroupProgram builds and runs one seeded random partitioned program
// under the given dispatch. Each rank runs callbacks, step processes and
// goroutine processes that log their actions and send deliveries across
// cut channels; every delivery is credited back after its channel's credit
// lookahead, in arrival order, as a switch port would. A wide program also
// queues a burst of 1-2x concurrentMin local events on every rank before
// Run, all inside the first window, so adaptive dispatch has rounds that
// qualify for the workers.
func runGroupProgram(seed uint64, wide bool, d Dispatch) groupRun {
	r := NewRand(seed)
	n := 2 + r.Intn(3)
	g := NewGroup(n)
	defer g.Shutdown()
	g.SetDispatch(d)
	ranks := make([]*rankState, n)
	for i := range ranks {
		ranks[i] = &rankState{eng: g.Engine(i), rng: NewRand(seed*131 + uint64(i) + 1)}
	}
	for s := 0; s < n; s++ {
		for dst := 0; dst < n; dst++ {
			if s != dst && r.Intn(3) > 0 {
				la := Time(5+r.Intn(20)) * Nanosecond
				cla := Time(r.Intn(5)) * Nanosecond
				ranks[s].out = append(ranks[s].out, g.Connect(s, dst, la, cla))
				ranks[s].last = append(ranks[s].last, 0)
			}
		}
	}

	// send posts a delivery on one of rs's channels, arriving no earlier
	// than the channel's previous one (a link delivers in order); the
	// receiver logs it, may bounce a reply while ttl lasts, and credits it
	// back.
	var send func(rs *rankState, actor, ttl int)
	send = func(rs *rankState, actor, ttl int) {
		if len(rs.out) == 0 {
			return
		}
		c := rs.rng.Intn(len(rs.out))
		ch := rs.out[c]
		src, dst := ranks[ch.Src()], ranks[ch.Dst()]
		at := max(rs.eng.now+ch.lookahead+Time(rs.rng.Intn(3000)), rs.last[c])
		rs.last[c] = at
		ch.Deliver(at, func() {
			dst.note(actor, 1000+ttl)
			if ttl > 0 && dst.rng.Intn(2) == 0 {
				send(dst, actor, ttl-1)
			}
			dst.eng.Schedule(dst.eng.now+ch.creditLA, func() {
				ch.Credit(func() { src.note(actor, 2000+ttl) })
			})
		})
	}

	for i, rs := range ranks {
		rs := rs
		base := 100 * i
		// Callbacks: timers that chain and send.
		for c := 0; c < 3+r.Intn(4); c++ {
			actor, left := base+c, 2+r.Intn(6)
			var fire func()
			fire = func() {
				rs.note(actor, left)
				if rs.rng.Intn(3) == 0 {
					send(rs, actor, 3)
				}
				if left--; left > 0 {
					rs.eng.Schedule(rs.eng.now+Time(rs.rng.Intn(40_000)), fire)
				}
			}
			rs.eng.Schedule(Time(r.Intn(20_000)), fire)
		}
		// Step processes: machines that wait through WakeAt.
		for s := 0; s < 1+r.Intn(2); s++ {
			actor, left := base+10+s, 3+r.Intn(6)
			rs.eng.SpawnStep(fmt.Sprintf("step%d", actor), func(p *Proc) {
				rs.note(actor, left)
				if rs.rng.Intn(2) == 0 {
					send(rs, actor, 2)
				}
				if left--; left > 0 {
					p.WakeAt(p.Now() + Time(rs.rng.Intn(30_000)))
				}
			})
		}
		// Goroutine processes: blocking loops.
		for s := 0; s < 1+r.Intn(2); s++ {
			actor, iters := base+20+s, 3+r.Intn(6)
			rs.eng.Spawn(fmt.Sprintf("proc%d", actor), func(p *Proc) {
				for k := 0; k < iters; k++ {
					rs.note(actor, k)
					if rs.rng.Intn(2) == 0 {
						send(rs, actor, 2)
					}
					p.Sleep(Time(rs.rng.Intn(30_000)))
				}
			})
		}
		if wide {
			// Every channel's lookahead is at least 5 ns, so events in the
			// first 4 ns all fall inside the first window.
			actor := base + 50
			for k := 0; k < concurrentMin+r.Intn(concurrentMin); k++ {
				k := k
				rs.eng.Schedule(Time(k), func() {
					rs.note(actor, k)
					if k%128 == 0 {
						send(rs, actor, 1)
					}
				})
			}
		}
	}

	res := groupRun{end: g.Run()}
	for _, rs := range ranks {
		res.logs = append(res.logs, rs.log)
	}
	res.rounds = g.Rounds()
	res.evTotal, res.evCrit = g.EventsTotal(), g.EventsCritical()
	res.concRounds = g.ConcurrentRounds()
	return res
}

// TestGroupDispatchEquivalence runs seeded random group programs under
// adaptive, inline and concurrent dispatch: logs, end times, round counts
// and both event counts must match exactly. Adaptive's concurrent-round
// count must repeat run to run and be positive on the wide programs.
func TestGroupDispatchEquivalence(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for s := 0; s < seeds; s++ {
		seed, wide := uint64(0xD15BA7C4+s), s%2 == 0
		want := runGroupProgram(seed, wide, DispatchInline)
		if want.concRounds != 0 {
			t.Fatalf("seed %d: inline dispatch ran %d rounds on the workers", s, want.concRounds)
		}
		for _, d := range []Dispatch{DispatchAdaptive, DispatchConcurrent} {
			got := runGroupProgram(seed, wide, d)
			label := fmt.Sprintf("seed %d wide=%v dispatch %v", s, wide, d)
			if got.end != want.end || got.rounds != want.rounds {
				t.Errorf("%s: end %v after %d rounds, inline %v after %d", label, got.end, got.rounds, want.end, want.rounds)
			}
			if got.evTotal != want.evTotal || got.evCrit != want.evCrit {
				t.Errorf("%s: events total %d critical %d, inline %d and %d",
					label, got.evTotal, got.evCrit, want.evTotal, want.evCrit)
			}
			for rank := range want.logs {
				if !slices.Equal(got.logs[rank], want.logs[rank]) {
					t.Errorf("%s: rank %d log diverged from inline", label, rank)
				}
			}
			if d == DispatchConcurrent && got.concRounds != got.rounds {
				t.Errorf("%s: %d of %d rounds on the workers", label, got.concRounds, got.rounds)
			}
		}
		a, b := runGroupProgram(seed, wide, DispatchAdaptive), runGroupProgram(seed, wide, DispatchAdaptive)
		if a.concRounds != b.concRounds {
			t.Errorf("seed %d: adaptive concurrent rounds %d then %d", s, a.concRounds, b.concRounds)
		}
		if wide && a.concRounds == 0 {
			t.Errorf("seed %d: wide program sent no round to the workers", s)
		}
	}
}

// TestEngineQueuedBy: the window-size count sees run-queue and heap events
// at or before the deadline, skips cancelled run-queue entries, stops at its
// limit, and allocates nothing.
func TestEngineQueuedBy(t *testing.T) {
	e := NewEngine()
	var tm timer
	for i := 0; i < 3; i++ {
		tm = e.schedule(0, nop, nil) // run queue
	}
	e.cancel(tm)
	for at := Time(100); at > 0; at-- { // heap, inserted out of order
		e.Schedule(at, nop)
	}
	for _, c := range []struct {
		deadline Time
		limit    int
		want     int
	}{
		{0, 1000, 2},
		{10, 1000, 12},
		{100, 1000, 102},
		{Forever, 1000, 102},
		{100, 50, 50},
		{100, 1, 1},
	} {
		if got := e.queuedBy(c.deadline, c.limit); got != c.want {
			t.Errorf("queuedBy(%d, %d) = %d, want %d", c.deadline, c.limit, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { e.queuedBy(Forever, 1000) }); allocs != 0 {
		t.Errorf("queuedBy allocated %.1f per call, want 0", allocs)
	}
}

// TestGroupEnginesOwnCacheLines: no two engines of a group share a 64-byte
// line, so one rank's per-event writes never invalidate a neighbouring
// rank's reads.
func TestGroupEnginesOwnCacheLines(t *testing.T) {
	g := NewGroup(8)
	defer g.Shutdown()
	size := unsafe.Sizeof(Engine{})
	type span struct{ first, last uintptr }
	lines := make([]span, g.Len())
	for i := range lines {
		p := uintptr(unsafe.Pointer(g.Engine(i)))
		lines[i] = span{p / 64, (p + size - 1) / 64}
	}
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if lines[i].first <= lines[j].last && lines[j].first <= lines[i].last {
				t.Errorf("engines %d and %d share cache lines %v and %v", i, j, lines[i], lines[j])
			}
		}
	}
}

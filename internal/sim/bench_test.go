package sim

import (
	"fmt"
	"testing"
)

// The engine microbenchmarks pin the hot-path costs that every experiment
// pays per event: heap scheduling, the same-time run queue, the delay
// lanes, the sampler's rounds, and process context switches. The companion
// TestXxxZeroAllocs gates assert that a warm engine's steady state allocates
// nothing, so an accidental closure or slice growth on these paths fails CI
// rather than silently taxing every simulation. BENCH_engine.json at the
// repo root holds the checked-in baseline; compare with scripts/benchdiff.

func nop() {}

// BenchmarkSchedule measures scheduling at spread-out future times: events
// fire in batches, four of the 97 delays in flight hold the delay lanes and
// the rest sift through the heap, whose capacity each batch reuses.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	run := func(n int) {
		for i := 0; i < n; i++ {
			// Spread arrival times so events exercise real heap sifts.
			e.Schedule(e.now+Time(1+i%97), nop)
			if e.pending() >= 1024 {
				e.Run()
			}
		}
		e.Run()
	}
	run(1024) // warm: grow the heap and the lanes, so B/op shows the steady state
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkSameTimeEvent measures the run-queue bypass: events scheduled at
// the current instant never touch the heap.
func BenchmarkSameTimeEvent(b *testing.B) {
	e := NewEngine()
	run := func(n int) {
		for i := 0; i < n; i++ {
			e.Schedule(e.now, nop)
			if e.pending() >= 256 {
				e.Run()
			}
		}
		e.Run()
	}
	run(256) // warm: grow the run queue
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkSamplerRound measures one sampler round on an idle engine: the
// tick at an interval boundary and the sample it queues at that instant.
// RunUntil bounds the run, so the idle sampler is no stall.
func BenchmarkSamplerRound(b *testing.B) {
	e := NewEngine()
	rounds := 0
	StartSampler(e, Microsecond, func() { rounds++ })
	e.RunUntil(Microsecond) // warm: the first round claims its lanes
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.now + Time(b.N)*Microsecond)
	if rounds != b.N+1 {
		b.Fatalf("%d samples in %d rounds", rounds, b.N+1)
	}
}

// mixedDelays is a 100-entry delay table in permute's mix: the fabric's
// three fixed hop delays — a full packet's tail 528 ns after its send, its
// head 26 ns after it, and 100 ns of routing — in turn, with 7 entries,
// one in each run of 14, replaced by other delays.
func mixedDelays() []Time {
	hop := []Time{528 * Nanosecond, 26 * Nanosecond, 100 * Nanosecond}
	delays := make([]Time, 100)
	for i := range delays {
		delays[i] = hop[i%len(hop)]
	}
	r := NewRand(1)
	for i := 0; i < 7; i++ {
		delays[i*14+r.Intn(14)] = Time(1+r.Intn(2000)) * Nanosecond / 4
	}
	return delays
}

// mixedChains keeps chains of events firing: each link schedules the next
// at the next delay of mixedDelays until the chains have scheduled their
// budget of links. start(k, n) starts k chains with a budget of n.
type mixedChains struct {
	e      *Engine
	delays []Time
	next   int
	left   int
	fire   func()
}

func newMixedChains(e *Engine) *mixedChains {
	c := &mixedChains{e: e, delays: mixedDelays()}
	c.fire = func() {
		if c.left > 0 {
			c.left--
			c.link()
		}
	}
	return c
}

// link schedules one link at the next delay.
func (c *mixedChains) link() {
	c.next++
	c.e.Schedule(c.e.now+c.delays[c.next%len(c.delays)], c.fire)
}

func (c *mixedChains) start(k, n int) {
	c.next, c.left = 0, n
	for i := 0; i < k; i++ {
		c.link()
	}
}

// BenchmarkScheduleMixedDelays measures the delay lanes under permute's
// load: about 250 events stay pending, and each firing schedules its
// successor with the next delay of mixedDelays, so the three hop delays
// append to their lanes and most of the other 7% go through the heap.
func BenchmarkScheduleMixedDelays(b *testing.B) {
	e := NewEngine()
	c := newMixedChains(e)
	c.start(250, 1<<14) // warm: grow the lanes and the heap
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	c.start(250, b.N)
	e.Run()
}

// BenchmarkProcSelfWake measures a process sleeping and waking itself — the
// dominant context-switch pattern, which the migrating-driver design serves
// with no channel operation at all.
func BenchmarkProcSelfWake(b *testing.B) {
	e := NewEngine()
	n := b.N
	b.ReportAllocs()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkProcSwitch measures a genuine cross-process switch: two processes
// ping-pong through a pair of queues, so every iteration transfers control
// between goroutines twice.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	ping, pong := NewQueue[int](), NewQueue[int]()
	n := b.N
	b.ReportAllocs()
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	e.Run()
}

// pingPongSteps spawns the step counterpart of BenchmarkProcSwitch's pair:
// two step processes ping-ponging n rounds through a pair of queues, every
// round waking each step once — a function call, not a goroutine handoff.
func pingPongSteps(e *Engine, n int) {
	ping, pong := NewQueue[int](), NewQueue[int]()
	pinged, ponged := 0, 0
	e.SpawnStep("ping", func(p *Proc) {
		for ponged < n {
			if pinged == ponged {
				ping.Put(pinged)
				pinged++
			}
			if _, ok := pong.GetOrWait(p); !ok {
				return
			}
			ponged++
		}
	})
	got := 0
	e.SpawnStep("pong", func(p *Proc) {
		for got < n {
			if _, ok := ping.GetOrWait(p); !ok {
				return
			}
			pong.Put(got)
			got++
		}
	})
}

// BenchmarkStepSwitch is BenchmarkProcSwitch with step processes: the
// per-hop cost the fabric's port and NIC stages pay.
func BenchmarkStepSwitch(b *testing.B) {
	e := NewEngine()
	pingPongSteps(e, b.N)
	b.ReportAllocs()
	e.Run()
}

// warmEngine grows an engine's heap, run queue and delay lanes past what the
// alloc gates below need, so the measured region only recycles capacity:
// 512 events at delay zero fill the run queue, 512 at each of four delays
// fill the four lanes they claim, and 512 at distinct delays fill the heap.
func warmEngine(e *Engine) {
	for i := 0; i < 512; i++ {
		e.Schedule(e.now, nop)
		for _, d := range []Time{528 * Nanosecond, 26 * Nanosecond, 100 * Nanosecond, 7 * Nanosecond} {
			e.Schedule(e.now+d, nop)
		}
		e.Schedule(e.now+Time(1+i), nop)
	}
	e.Run()
}

// TestScheduleZeroAllocs gates the timed paths on a warm engine: events at
// spread-out delays from outside any event, and chains that schedule
// permute's delay mix from their callbacks, so the lanes are claimed,
// appended to and drained while the rest goes through the heap.
func TestScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	warmEngine(e)
	c := newMixedChains(e)
	inLane := 0
	probe := func() {
		if e.busy&^1 != 0 {
			inLane++
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.now+Time(1+i%17), nop)
		}
		c.start(64, 1024)
		e.Schedule(e.now+26*Nanosecond, probe)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("timed schedule/fire path allocated %.1f per run, want 0", allocs)
	}
	if inLane == 0 {
		t.Fatal("no delay lane held an event")
	}
}

func TestSameTimeZeroAllocs(t *testing.T) {
	e := NewEngine()
	warmEngine(e)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.now, nop)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("same-time run-queue path allocated %.1f per run, want 0", allocs)
	}
}

func TestProcSelfWakeZeroAllocs(t *testing.T) {
	// A process sleeping in a loop is the wake path end to end: proc wake
	// events carry no closure and ride one delay lane. The engine is driven
	// by the proc itself, so the whole Run is steady-state after the spawn.
	e := NewEngine()
	warmEngine(e)
	wakes := 0
	e.Spawn("sleeper", func(p *Proc) {
		// One warm-up sleep outside the measured region grows nothing: the
		// lanes are already warm.
		for {
			p.Sleep(Nanosecond)
			wakes++
			if wakes >= 1<<20 {
				return
			}
		}
	})
	// Measure the full run minus the spawn overhead by sampling allocations
	// around Run directly.
	allocs := testing.AllocsPerRun(1, func() { e.Run() })
	if allocs != 0 {
		t.Fatalf("proc self-wake run allocated %.1f, want 0", allocs)
	}
	if wakes < 1<<20 {
		t.Fatalf("sleeper only woke %d times", wakes)
	}
}

func TestStepSwitchZeroAllocs(t *testing.T) {
	// Step wakes carry the *Proc like goroutine wakes, and the step runs
	// inline, so a warm ping-pong allocates nothing.
	e := NewEngine()
	warmEngine(e)
	pingPongSteps(e, 1<<16)
	allocs := testing.AllocsPerRun(1, func() { e.Run() })
	if allocs != 0 {
		t.Fatalf("step ping-pong allocated %.1f, want 0", allocs)
	}
	if e.Events() < 1<<17 {
		t.Fatalf("only %d events fired", e.Events())
	}
	e.Shutdown()
}

// --- Partition-group benchmarks -------------------------------------------
//
// These pin the costs the partitioned engine adds on top of the serial hot
// paths above: the full barrier round trip, per-message cross-partition
// handoff, and the horizon computation that bounds every round. The
// steady-state barrier loop is gated zero-alloc like the serial paths.

// BenchmarkGroupPingPong measures a full conservative round trip: one
// message crosses the cut per barrier, so each iteration pays two complete
// rounds (inject, horizon, window dispatch, window drain) with minimal
// engine work inside them — the pure coordination overhead.
func BenchmarkGroupPingPong(b *testing.B) {
	g := NewGroup(2)
	defer g.Shutdown()
	ab := g.Connect(0, 1, 10, 0)
	ba := g.Connect(1, 0, 10, 0)
	left := b.N
	var send, bounce func()
	send = func() {
		ba.Credit(callback(nop)) // retire the reply's buffer, as a real port would
		if left == 0 {
			return
		}
		left--
		ab.Deliver(g.Engine(0).Now()+10, callback(bounce))
	}
	bounce = func() {
		ab.Credit(callback(nop))
		ba.Deliver(g.Engine(1).Now()+10, callback(send))
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Engine(0).Schedule(0, func() {
		left--
		ab.Deliver(10, callback(bounce))
	})
	g.Run()
}

// BenchmarkGroupCrossSend measures bulk handoff: batches of deliveries
// buffered in one window, sorted and injected at the next barrier. Per-op
// cost is per message, amortizing the barrier across the batch.
func BenchmarkGroupCrossSend(b *testing.B) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 10, 0)
	const batch = 256
	var n, sent int
	ack := func() { ch.Credit(callback(nop)) }
	var post func()
	post = func() {
		now := g.Engine(0).Now()
		for i := 0; i < batch && sent < n; i++ {
			sent++
			ch.Deliver(now+10, callback(ack))
		}
		if sent < n {
			g.Engine(0).Schedule(now+20, post)
		}
	}
	run := func(total int) {
		n, sent = total, 0
		g.Engine(0).Schedule(g.Engine(0).Now(), post)
		g.Run()
	}
	run(4 * batch) // warm: grow the window buffers and event queues
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkGroupWindow is the crossover benchmark behind the adaptive
// dispatch threshold (concurrentMin). Two ranks each hold n independent
// events at the start of every window, so the queued count the adaptive
// rule reads equals the events the window fires; each event does about
// what an average fabric event costs, on memory private to its rank, and
// re-arms itself one lookahead later. The pair runs inline and on the
// workers. ns/op is per event pair (one event on each rank), so the
// fixed-iteration alloc pass stays short; the smallest n at which the
// concurrent run wins by 10% sets concurrentMin (PERFORMANCE.md).
func BenchmarkGroupWindow(b *testing.B) {
	for _, mode := range []struct {
		name string
		d    Dispatch
	}{{"inline", DispatchInline}, {"concurrent", DispatchConcurrent}} {
		for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				benchWindow(b, mode.d, n)
			})
		}
	}
}

// windowWork stands in for one fabric event: a short xorshift walk over
// the rank's private buffer. It returns the walk's state for the next event.
func windowWork(buf []uint64, x uint64) uint64 {
	for i := 0; i < 24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x%uint64(len(buf))] += x
	}
	return x
}

// windowRank is one rank's event state in benchWindow. The two ranks'
// events write theirs on every event, concurrently under concurrent
// dispatch, so each sits on cache lines of its own.
type windowRank struct {
	_            [cacheLine]byte
	x            uint64
	armed, total int
	_            [cacheLine]byte
}

func benchWindow(b *testing.B, d Dispatch, n int) {
	const lookahead = 1 << 20 // wider than any window's span of event times
	g := NewGroup(2)
	defer g.Shutdown()
	g.SetDispatch(d)
	g.Connect(0, 1, lookahead, 0)
	g.Connect(1, 0, lookahead, 0)
	// arm schedules total events per rank, n per window.
	arms := make([]func(total int), 2)
	for r := range arms {
		e := g.Engine(r)
		buf := make([]uint64, 4096)
		st := &windowRank{x: uint64(r + 1)}
		var fire func()
		fire = func() {
			st.x = windowWork(buf, st.x)
			if st.armed < st.total {
				st.armed++
				e.Schedule(e.Now()+lookahead, fire)
			}
		}
		arms[r] = func(t int) {
			st.armed, st.total = 0, t
			start := e.Now() + lookahead
			for st.armed < min(n, t) {
				e.Schedule(start+Time(st.armed), fire)
				st.armed++
			}
		}
	}
	run := func(total int) {
		for _, arm := range arms {
			arm(total)
		}
		g.Run()
	}
	// Warm up: start the workers and grow the event queues. The events
	// re-arm into a delay lane, which the first n events alone never fill,
	// so the warm run re-arms them for a few windows.
	run(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// benchHorizonGroup builds the horizon benchmark fixture: 8 fully meshed
// partitions (56 channels) with outstanding deliveries on a quarter of them,
// the shape of a mid-collective fat-tree round.
func benchHorizonGroup() *Group {
	g := NewGroup(8)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				g.Connect(s, d, 10, 100)
			}
		}
	}
	for _, c := range g.channels[:14] {
		c.outstanding = append(c.outstanding, 5)
		c.inOutst = true
		g.outst = append(g.outst, c)
	}
	for i := range g.next {
		g.next[i] = Time(100 + i)
	}
	return g
}

// BenchmarkGroupHorizon measures computeHorizons alone — the only
// super-linear barrier term (relaxation over rank pairs) — at 8 partitions.
func BenchmarkGroupHorizon(b *testing.B) {
	g := benchHorizonGroup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.computeHorizons()
	}
}

// TestGroupBarrierZeroAllocs gates the steady-state barrier loop: once the
// scratch slices are grown, a ping-pong round — buffered message, dirty-list
// drain, injection sort, horizon relaxation, window dispatch — recycles
// everything. An accidental per-round closure or slice regrowth fails here
// rather than taxing every partitioned run. A ping-pong round has one active
// rank holding one event, so adaptive dispatch must also run every round
// inline, never handing one to the workers.
func TestGroupBarrierZeroAllocs(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ab := g.Connect(0, 1, 10, 0)
	ba := g.Connect(1, 0, 10, 0)
	left := 0
	var send, bounce func()
	send = func() {
		ba.Credit(callback(nop))
		if left == 0 {
			return
		}
		left--
		ab.Deliver(g.Engine(0).Now()+10, callback(bounce))
	}
	bounce = func() {
		ab.Credit(callback(nop))
		ba.Deliver(g.Engine(1).Now()+10, callback(send))
	}
	kick := func() {
		left--
		ab.Deliver(g.Engine(0).Now()+10, callback(bounce))
	}
	run := func() {
		left = 1 << 10
		g.Engine(0).Schedule(g.Engine(0).Now(), kick)
		g.Run()
	}
	run() // warm: grow scratch and the event queues, start workers
	allocs := testing.AllocsPerRun(5, run)
	if allocs != 0 {
		t.Fatalf("barrier loop allocated %.1f per run, want 0", allocs)
	}
	if n := g.ConcurrentRounds(); n != 0 {
		t.Fatalf("%d of %d ping-pong rounds went to the workers", n, g.Rounds())
	}
}

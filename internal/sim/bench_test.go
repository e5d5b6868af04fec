package sim

import (
	"fmt"
	"testing"
)

// The engine microbenchmarks pin the hot-path costs that every experiment
// pays per event: heap scheduling, the same-time run-queue bypass, timer
// cancellation, and process context switches. The companion TestXxxZeroAllocs
// gates assert that the pooled steady state allocates nothing, so an
// accidental closure or slice growth on these paths fails CI rather than
// silently taxing every simulation. BENCH_engine.json at the repo root holds
// the checked-in baseline; compare with scripts/benchdiff.

func nop() {}

// BenchmarkSchedule measures heap-path scheduling: events land at spread-out
// future times, fire in batches, and their slots recycle through the pool.
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
	run(1024) // warm: grow the event pool, so B/op shows the steady state
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

// BenchmarkScheduleCancel measures the sampler's timer pattern: schedule a
// future event, then cancel it (direct heap removal, slot recycled).
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.schedule(e.now+Time(1+i%97), nop, nil)
		e.cancel(t)
	}
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

// warmEngine grows an engine's pool, heap, and run queue past what the alloc
// gates below need, so the measured region only recycles capacity.
func warmEngine(e *Engine) {
	for i := 0; i < 512; i++ {
		e.Schedule(e.now+Time(1+i), nop)
		e.Schedule(e.now, nop)
	}
	e.Run()
}

func TestScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	warmEngine(e)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.now+Time(1+i%17), nop)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("heap schedule/fire path allocated %.1f per run, want 0", allocs)
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

func TestScheduleCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	warmEngine(e)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			tm := e.schedule(e.now+Time(1+i%17), nop, nil)
			e.cancel(tm)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel path allocated %.1f per run, want 0", allocs)
	}
}

func TestProcSelfWakeZeroAllocs(t *testing.T) {
	// A process sleeping in a loop is the pooled path end to end: proc wake
	// events carry no closure and the slot recycles every iteration. The
	// engine is driven by the proc itself, so the whole Run is steady-state
	// after the spawn.
	e := NewEngine()
	warmEngine(e)
	wakes := 0
	e.Spawn("sleeper", func(p *Proc) {
		// One warm-up sleep outside the measured region grows nothing: the
		// pool is already hot.
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

// TestCancelRecycledSlotIsNoop pins the timer-handle guard: cancelling after
// the event fired — even after its pool slot was recycled for a newer event
// — must not disturb the queue.
func TestCancelRecycledSlotIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.schedule(10, func() { fired++ }, nil)
	e.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	// Recycle the slot for a new event, then cancel the stale handle.
	e.schedule(20, func() { fired++ }, nil)
	e.cancel(tm)
	e.Run()
	if fired != 2 {
		t.Fatalf("stale cancel killed a recycled event: fired = %d, want 2", fired)
	}
}

// TestCancelHeapMiddle pins direct heap removal: cancelling an event that is
// neither the top nor a leaf must keep every other event firing in order.
func TestCancelHeapMiddle(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var timers []timer
	for _, at := range []Time{50, 10, 40, 20, 60, 30, 70, 15, 45} {
		at := at
		timers = append(timers, e.schedule(at, func() { fired = append(fired, at) }, nil))
	}
	e.cancel(timers[2]) // at=40
	e.cancel(timers[3]) // at=20
	e.Run()
	want := []Time{10, 15, 30, 45, 50, 60, 70}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.now != 70 {
		t.Fatalf("end time %v, want 70", e.now)
	}
}

// TestCancelRunQueueEntry pins the same-time cancellation path: a cancelled
// run-queue entry is skipped and its slot recycled without firing.
func TestCancelRunQueueEntry(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(5, func() {
		tm := e.schedule(e.now, func() { fired++ }, nil)
		e.schedule(e.now, func() { fired++ }, nil)
		e.cancel(tm)
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d same-time events, want 1 (other cancelled)", fired)
	}
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
		ba.Credit(nop) // retire the reply's buffer, as a real port would
		if left == 0 {
			return
		}
		left--
		ab.Deliver(g.Engine(0).Now()+10, bounce)
	}
	bounce = func() {
		ab.Credit(nop)
		ba.Deliver(g.Engine(1).Now()+10, send)
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Engine(0).Schedule(0, func() {
		left--
		ab.Deliver(10, bounce)
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
	ack := func() { ch.Credit(nop) }
	var post func()
	post = func() {
		now := g.Engine(0).Now()
		for i := 0; i < batch && sent < n; i++ {
			sent++
			ch.Deliver(now+10, ack)
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
	run(4 * batch) // warm: grow the window buffers and event pools
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
		x := uint64(r + 1)
		armed := 0
		var total int
		var fire func()
		fire = func() {
			x = windowWork(buf, x)
			if armed < total {
				armed++
				e.Schedule(e.Now()+lookahead, fire)
			}
		}
		arms[r] = func(t int) {
			armed, total = 0, t
			start := e.Now() + lookahead
			for armed < min(n, t) {
				e.Schedule(start+Time(armed), fire)
				armed++
			}
		}
	}
	run := func(total int) {
		for _, arm := range arms {
			arm(total)
		}
		g.Run()
	}
	run(n) // warm: grow the event pools, start the workers
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
		ba.Credit(nop)
		if left == 0 {
			return
		}
		left--
		ab.Deliver(g.Engine(0).Now()+10, bounce)
	}
	bounce = func() {
		ab.Credit(nop)
		ba.Deliver(g.Engine(1).Now()+10, send)
	}
	kick := func() {
		left--
		ab.Deliver(g.Engine(0).Now()+10, bounce)
	}
	run := func() {
		left = 1 << 10
		g.Engine(0).Schedule(g.Engine(0).Now(), kick)
		g.Run()
	}
	run() // warm: grow scratch, start workers, pool engine slots
	allocs := testing.AllocsPerRun(5, run)
	if allocs != 0 {
		t.Fatalf("barrier loop allocated %.1f per run, want 0", allocs)
	}
	if n := g.ConcurrentRounds(); n != 0 {
		t.Fatalf("%d of %d ping-pong rounds went to the workers", n, g.Rounds())
	}
}

package sim

import (
	"strings"
	"testing"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if Microsecond != 1000*Nanosecond {
		t.Fatal("microsecond/nanosecond ratio wrong")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{100 * Nanosecond, "100.000ns"},
		{30 * Microsecond, "30.000us"},
		{5 * Millisecond, "5.000ms"},
		{2 * Second, "2.000s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockRatio(t *testing.T) {
	// The paper's host runs at 4x the switch clock.
	if HostClock.Cycles(4) != SwitchClock.Cycles(1) {
		t.Fatal("host/switch clock ratio is not 4:1")
	}
	if HostClock.Cycles(2_000_000_000) != Second {
		t.Fatal("2G host cycles should be exactly one second")
	}
}

func TestClockCyclesCeil(t *testing.T) {
	if got := HostClock.CyclesCeil(0); got != 0 {
		t.Errorf("CyclesCeil(0) = %d", got)
	}
	if got := HostClock.CyclesCeil(1 * Picosecond); got != 1 {
		t.Errorf("CyclesCeil(1ps) = %d, want 1", got)
	}
	if got := HostClock.CyclesCeil(500 * Picosecond); got != 1 {
		t.Errorf("CyclesCeil(1 cycle) = %d, want 1", got)
	}
	if got := HostClock.CyclesCeil(501 * Picosecond); got != 2 {
		t.Errorf("CyclesCeil(501ps) = %d, want 2", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GB/s moves 512 bytes in 512 ns.
	if got := TransferTime(512, 1e9); got != 512*Nanosecond {
		t.Fatalf("TransferTime(512B @1GB/s) = %v, want 512ns", got)
	}
	if got := TransferTime(0, 1e9); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
	// Rounding is up: 1 byte at 3 bytes/sec is ceil(1/3 s).
	if got := TransferTime(1, 3); got < Second/3 {
		t.Fatalf("TransferTime must round up, got %v", got)
	}
}

func TestPerBytePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PerByte(0) did not panic")
		}
	}()
	PerByte(0)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	// Same-time events run in scheduling order.
	e.Schedule(20, func() { order = append(order, 4) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++; e.Stop() })
	e.Schedule(20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	// Run again resumes the remaining event.
	e.Run()
	if ran != 2 {
		t.Fatalf("resume ran %d total, want 2", ran)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=20, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(5 * Second)
	if e.Now() != 5*Second {
		t.Fatalf("Now() = %v, want 5s", e.Now())
	}
}

// TestEngineRunUntilStopKeepsClockForward: a Stop inside RunUntil ends the
// phase at the stopping event. The clock must stay there rather than jump to
// the deadline past an event that is still queued, which a later Run would
// then fire with the clock moving back.
func TestEngineRunUntilStopKeepsClockForward(t *testing.T) {
	e := NewEngine()
	var clock []Time
	e.Schedule(10*Picosecond, func() { clock = append(clock, e.Now()); e.Stop() })
	e.Schedule(20*Picosecond, func() { clock = append(clock, e.Now()) })
	if end := e.RunUntil(100 * Picosecond); end != 10*Picosecond {
		t.Fatalf("RunUntil(100ps) after Stop at 10ps returned %v, want 10ps", end)
	}
	if end := e.Run(); end != 20*Picosecond {
		t.Fatalf("Run ended at %v, want 20ps", end)
	}
	if len(clock) != 2 || clock[0] != 10*Picosecond || clock[1] != 20*Picosecond {
		t.Fatalf("events saw the clock at %v, want [10ps 20ps]", clock)
	}
	// A phase that is not stopped still moves an idle clock to its deadline.
	if end := e.RunUntil(100 * Picosecond); end != 100*Picosecond {
		t.Fatalf("idle RunUntil(100ps) returned %v", end)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Run", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(20)
		order = append(order, "a1")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(10)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var start Time
	e.SpawnAt(42*Nanosecond, "late", func(p *Proc) { start = p.Now() })
	e.Run()
	if start != 42*Nanosecond {
		t.Fatalf("started at %v, want 42ns", start)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Put(i)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueMultipleWaiters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string]()
	var got []string
	for i := 0; i < 2; i++ {
		name := string(rune('x' + i))
		e.Spawn(name, func(p *Proc) { got = append(got, p.Name()+":"+q.Get(p)) })
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(5)
		q.Put("first")
		q.Put("second")
	})
	e.Run()
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// Waiters are served in arrival order.
	if got[0] != "x:first" || got[1] != "y:second" {
		t.Fatalf("got %v, want [x:first y:second]", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(7)
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(0)
	e.Spawn("releaser", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			s.Release()
		}
	})
	// "first" and "second" queue at 1 and 2. "late" asks at 10, the
	// instant the first permit comes back and before first has run: that
	// permit is the head waiter's, so late must queue behind second.
	var order []string
	for _, w := range []struct {
		name string
		at   Time
	}{{"first", 1}, {"second", 2}, {"late", 10}} {
		e.Spawn(w.name, func(p *Proc) {
			p.Sleep(w.at)
			s.Acquire(p)
			order = append(order, w.name)
		})
	}
	e.Run()
	if got := strings.Join(order, " "); got != "first second late" {
		t.Fatalf("order = [%s], want [first second late]", got)
	}
	if s.Available() != 0 {
		t.Fatalf("leftover permits = %d, want 0", s.Available())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := NewSemaphore(1)
	if !s.TryAcquire() {
		t.Fatal("TryAcquire with a permit failed")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire with no permits succeeded")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	sig := NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(10)
		sig.Fire()
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if sig.Fires() != 1 {
		t.Fatalf("fires = %d, want 1", sig.Fires())
	}
}

func TestLatch(t *testing.T) {
	e := NewEngine()
	l := NewLatch()
	var after Time
	e.Spawn("waiter", func(p *Proc) {
		l.Wait(p)
		after = p.Now()
		// A second wait returns immediately.
		l.Wait(p)
	})
	e.Spawn("opener", func(p *Proc) {
		p.Sleep(77)
		l.Open()
		l.Open() // idempotent
	})
	e.Run()
	if after != 77 {
		t.Fatalf("latch released at %v, want 77", after)
	}
	if !l.Opened() {
		t.Fatal("latch not opened")
	}
}

func TestServerQueueing(t *testing.T) {
	e := NewEngine()
	srv := NewServer(e, "bus")
	var done []Time
	for i := 0; i < 3; i++ {
		e.Spawn("client", func(p *Proc) {
			p.SleepUntil(srv.Reserve(100))
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if srv.BusyTime() != 300 {
		t.Fatalf("busy = %v, want 300", srv.BusyTime())
	}
	if srv.Jobs() != 3 {
		t.Fatalf("jobs = %d, want 3", srv.Jobs())
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	srv := NewServer(e, "bus")
	e.Spawn("client", func(p *Proc) {
		p.SleepUntil(srv.Reserve(10))
		p.Sleep(100) // let the server go idle
		end := srv.Reserve(10)
		p.SleepUntil(end)
		if end != 120 {
			t.Errorf("second job finished at %v, want 120", end)
		}
	})
	e.Run()
	if u := srv.Utilization(); u <= 0.14 || u >= 0.17 {
		t.Fatalf("utilization = %v, want ~20/120", u)
	}
}

func TestServerReserve(t *testing.T) {
	e := NewEngine()
	srv := NewServer(e, "dma")
	if end := srv.Reserve(50); end != 50 {
		t.Fatalf("first reserve ends at %v, want 50", end)
	}
	if end := srv.Reserve(50); end != 100 {
		t.Fatalf("second reserve ends at %v, want 100", end)
	}
	if srv.NextFree() != 100 {
		t.Fatalf("NextFree = %v, want 100", srv.NextFree())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		s := NewSemaphore(2)
		q := NewQueue[int]()
		var stamps []Time
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				s.Acquire(p)
				p.Sleep(Time(10 * (i + 1)))
				q.Put(i)
				s.Release()
				stamps = append(stamps, p.Now())
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 5; i++ {
				q.Get(p)
			}
			stamps = append(stamps, p.Now())
		})
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	// A perpetual server blocked on an empty queue, and a sleeper that
	// finished normally.
	e.Spawn("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("done", func(p *Proc) { p.Sleep(5) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs before shutdown = %d, want 1", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after shutdown = %d, want 0", e.LiveProcs())
	}
}

func TestShutdownNeverStartedProc(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1, func() { e.Stop() })
	e.SpawnAt(10, "late", func(p *Proc) { ran = true })
	e.Run() // stops at t=1, before the proc starts
	e.Shutdown()
	if ran {
		t.Fatal("killed proc body ran")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", e.LiveProcs())
	}
}

func TestSampler(t *testing.T) {
	e := NewEngine()
	v := 0.0
	s := startRecorder(e, 10*Microsecond, func() float64 { return v })
	e.Spawn("work", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Microsecond)
			v += 1
		}
		s.Stop()
	})
	e.Run()
	if s.n() < 4 || s.n() > 6 {
		t.Fatalf("samples = %d, want ~5", s.n())
	}
	// Values are monotone since v only grows.
	for i := 1; i < s.n(); i++ {
		if s.y[i] < s.y[i-1] {
			t.Fatalf("samples not monotone: %v", s.y)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Events() != 5 {
		t.Fatalf("events = %d, want 5", e.Events())
	}
}

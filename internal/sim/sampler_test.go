package sim

import "testing"

// recorder is a sampler's record in a test: the time of each sample, and
// what the sample function returned.
type recorder struct {
	*Sampler
	at []Time
	y  []float64
}

// startRecorder starts a sampler that records fn's value at each sample.
func startRecorder(e *Engine, interval Time, fn func() float64) *recorder {
	r := &recorder{}
	r.Sampler = StartSampler(e, interval, func() {
		r.at = append(r.at, e.Now())
		r.y = append(r.y, fn())
	})
	return r
}

// n reports how many samples were taken.
func (r *recorder) n() int { return len(r.at) }

func TestSamplerStopWakesImmediately(t *testing.T) {
	// Stop takes effect at once: no sample is taken after it. The pending
	// tick still fires, as a no-op, so Run ends at that tick's boundary,
	// not when the work stops the sampler.
	e := NewEngine()
	s := startRecorder(e, Second, func() float64 { return 1 })
	e.Spawn("work", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		s.Stop()
	})
	end := e.Run()
	if end != Second {
		t.Fatalf("Run ended at %v, want 1s — the stopped sampler's pending tick", end)
	}
	if s.n() != 0 {
		t.Fatalf("sampler stopped mid-interval took %d samples, want 0", s.n())
	}
	if e.LiveProcs() != 0 || e.ticks != 0 {
		t.Fatalf("%d processes and %d ticks left", e.LiveProcs(), e.ticks)
	}
}

// A sampled run spawns no process and hands control to no goroutine: the
// sampler is two typed events that fire inline.
func TestSamplerSpawnsNoProcess(t *testing.T) {
	e := NewEngine()
	s := startRecorder(e, 10*Microsecond, func() float64 { return 0 })
	e.Schedule(95*Microsecond, s.Stop)
	live := 0
	e.Schedule(50*Microsecond, func() { live = e.LiveProcs() })
	e.Run()
	if s.n() != 9 {
		t.Fatalf("samples = %d, want 9", s.n())
	}
	if live != 0 || e.LiveProcs() != 0 || e.Handoffs() != 0 {
		t.Fatalf("%d processes mid-run, %d after, %d handoffs; want none", live, e.LiveProcs(), e.Handoffs())
	}
}

func TestSamplerTicksAtInterval(t *testing.T) {
	e := NewEngine()
	v := 0.0
	s := startRecorder(e, 10*Microsecond, func() float64 { return v })
	e.Spawn("work", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Microsecond)
			v++
		}
		p.Sleep(5 * Microsecond)
		s.Stop()
	})
	e.Run()
	if s.n() != 4 {
		t.Fatalf("samples = %d, want 4", s.n())
	}
	for i, at := range s.at {
		if want := Time(i+1) * 10 * Microsecond; at != want {
			t.Fatalf("sample %d at %v, want %v", i, at, want)
		}
	}
}

func TestSamplerStopFromCallback(t *testing.T) {
	// The sample function may Stop its own sampler. The sample that
	// triggered the stop is still recorded, and no tick is queued after it.
	e := NewEngine()
	var s *recorder
	n := 0
	s = startRecorder(e, Microsecond, func() float64 {
		n++
		if n == 3 {
			s.Stop()
		}
		return float64(n)
	})
	e.Spawn("work", func(p *Proc) { p.Sleep(Millisecond) })
	e.Run()
	if s.n() != 3 {
		t.Fatalf("capped sampler took %d samples, want 3", s.n())
	}
	if e.LiveProcs() != 0 || e.ticks != 0 {
		t.Fatalf("%d processes and %d ticks left", e.LiveProcs(), e.ticks)
	}
}

func TestSamplerDecimate(t *testing.T) {
	// Decimating from the sample function — drop every other recorded
	// sample and double the interval with SetInterval — keeps sampling,
	// the timeline cap behaviour. The new interval applies from the next
	// tick, so the kept samples and the ones after them lie exactly on the
	// doubled grid, as if the sampler had run at the coarser interval all
	// along.
	const cap = 8
	e := NewEngine()
	var at []Time
	var s *Sampler
	s = StartSampler(e, 10*Microsecond, func() {
		if len(at) >= cap-1 {
			keep := at[:0]
			for i := 1; i < len(at); i += 2 {
				keep = append(keep, at[i])
			}
			at = keep
			s.SetInterval(2 * s.Interval())
		}
		at = append(at, e.Now())
	})
	e.Spawn("work", func(p *Proc) {
		p.Sleep(400 * Microsecond)
		s.Stop()
	})
	e.Run()
	if len(at) >= cap {
		t.Fatalf("decimating sampler holds %d samples, want < %d", len(at), cap)
	}
	if s.Interval() <= 10*Microsecond {
		t.Fatalf("interval = %v after decimation, want > 10us", s.Interval())
	}
	// The samples are evenly spaced at the final interval, starting one
	// interval in.
	for i, x := range at {
		if want := Time(i+1) * s.Interval(); x != want {
			t.Fatalf("sample %d at %v, want %v (samples %v)", i, x, want, at)
		}
	}
}

func TestSamplerStopBeforeRun(t *testing.T) {
	// Stopping before the engine ever runs is a no-op start: no samples,
	// no process, no events left behind.
	e := NewEngine()
	s := startRecorder(e, Microsecond, func() float64 { return 0 })
	s.Stop()
	if end := e.Run(); end != 0 {
		t.Fatalf("Run ended at %v, want 0", end)
	}
	if s.n() != 0 {
		t.Fatalf("samples = %d, want 0", s.n())
	}
	if e.LiveProcs() != 0 || e.ticks != 0 {
		t.Fatalf("%d processes and %d ticks left", e.LiveProcs(), e.ticks)
	}
}

// A process blocked forever on an empty queue, beside two samplers: at the
// first tick nothing but sampler ticks is queued, so Run fails with a stall
// report naming the blocked process (and not the samplers) instead of
// sampling on until decimation overflows the clock.
func TestSamplerReportsStall(t *testing.T) {
	e := NewEngine()
	samples := 0
	var ss [2]*Sampler
	sample := func() {
		// Bound the run should the stall go unreported.
		if samples++; samples == 1000 {
			ss[0].Stop()
			ss[1].Stop()
		}
	}
	ss[0] = StartSampler(e, 10*Microsecond, sample)
	ss[1] = StartSampler(e, 10*Microsecond, sample)
	q := NewQueue[int]()
	e.Spawn("consumer", func(p *Proc) { q.Get(p) })

	var r any
	func() {
		defer func() { r = recover() }()
		e.Run()
	}()
	st, ok := r.(*stallError)
	if !ok {
		t.Fatalf("Run raised %v (%T), want a stall report", r, r)
	}
	const want = "sim: stalled at 10.000us: only sampler ticks are queued; 1 blocked: consumer"
	if msg := st.Error(); msg != want {
		t.Fatalf("stall report %q, want %q", msg, want)
	}
	if samples != 2 || e.Now() != 10*Microsecond {
		t.Fatalf("stalled after %d samples at %v, want each sampler's first tick at 10us", samples, e.Now())
	}
	e.Shutdown()
}

// A process that sleeps across many ticks keeps its wake queued, so the
// samplers keep sampling and the run ends at the first tick boundary at or
// after the sleeper stops them.
func TestSamplerSleeperIsNoStall(t *testing.T) {
	e := NewEngine()
	a := startRecorder(e, 10*Microsecond, func() float64 { return 0 })
	b := startRecorder(e, 7*Microsecond, func() float64 { return 0 })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Millisecond)
		a.Stop()
		b.Stop()
	})
	// a's tick at 1ms fires after the sleeper's earlier-scheduled wake has
	// stopped it; b's pending tick fires, as a no-op, at 1.001ms.
	if end := e.Run(); end != Millisecond+Microsecond {
		t.Fatalf("Run ended at %v, want 1.001ms", end)
	}
	if a.n() != 99 || b.n() != 142 {
		t.Fatalf("samples %d and %d, want 99 and 142", a.n(), b.n())
	}
	if e.LiveProcs() != 0 || e.ticks != 0 {
		t.Fatalf("%d processes and %d ticks left", e.LiveProcs(), e.ticks)
	}
}

// The rule holds only in a Run: a RunUntil caller may add work after the
// deadline, so samplers idle up to it without a stall.
func TestSamplerRunUntilIsNoStall(t *testing.T) {
	e := NewEngine()
	s := startRecorder(e, 10*Microsecond, func() float64 { return 0 })
	q := NewQueue[int]()
	e.Spawn("consumer", func(p *Proc) { q.Get(p) })
	e.RunUntil(100 * Microsecond)
	if s.n() != 10 {
		t.Fatalf("samples = %d, want 10", s.n())
	}
	e.Shutdown()
}

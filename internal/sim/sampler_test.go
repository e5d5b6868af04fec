package sim

import "testing"

func TestSamplerStopWakesImmediately(t *testing.T) {
	// A stopped sampler must not doze through one more interval: Stop
	// unwinds the sampler process on the spot and cancels its pending
	// timer, so the event queue drains at the workload's end rather than
	// one sampling interval later.
	e := NewEngine()
	s := StartSampler(e, Second, func() float64 { return 1 })
	e.Spawn("work", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		s.Stop()
	})
	end := e.Run()
	if end != 30*Microsecond {
		t.Fatalf("Run ended at %v, want 30us — the cancelled timer advanced the clock", end)
	}
	if s.N() != 0 {
		t.Fatalf("sampler stopped mid-interval took %d samples, want 0", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}

func TestSamplerTicksAtInterval(t *testing.T) {
	e := NewEngine()
	v := 0.0
	s := StartSampler(e, 10*Microsecond, func() float64 { return v })
	e.Spawn("work", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Microsecond)
			v++
		}
		p.Sleep(5 * Microsecond)
		s.Stop()
	})
	e.Run()
	if s.N() != 4 {
		t.Fatalf("samples = %d, want 4", s.N())
	}
	for i, x := range s.X {
		want := (Time(i+1) * 10 * Microsecond).Seconds()
		if x != want {
			t.Fatalf("sample %d at %gs, want %gs", i, x, want)
		}
	}
}

func TestSamplerStopFromCallback(t *testing.T) {
	// fn may Stop its own sampler — the timeline cap used by the metrics
	// layer. The sample that triggered the stop is still recorded.
	e := NewEngine()
	var s *Sampler
	n := 0
	s = StartSampler(e, Microsecond, func() float64 {
		n++
		if n == 3 {
			s.Stop()
		}
		return float64(n)
	})
	e.Spawn("work", func(p *Proc) { p.Sleep(Millisecond) })
	e.Run()
	if s.N() != 3 {
		t.Fatalf("capped sampler took %d samples, want 3", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}

func TestSamplerDecimate(t *testing.T) {
	// Decimating from the sampling fn halves the series in place, doubles
	// the interval, and keeps sampling — the timeline cap behaviour. The
	// kept samples land exactly on the doubled grid, as if the sampler had
	// run at the coarser interval all along.
	const cap = 8
	e := NewEngine()
	var s *Sampler
	s = StartSampler(e, 10*Microsecond, func() float64 {
		v := float64(s.Interval())
		if s.N() >= cap-1 {
			s.Decimate()
		}
		return v
	})
	e.Spawn("work", func(p *Proc) {
		p.Sleep(400 * Microsecond)
		s.Stop()
	})
	e.Run()
	if s.N() >= cap {
		t.Fatalf("decimating sampler holds %d samples, want < %d", s.N(), cap)
	}
	if s.Interval() <= 10*Microsecond {
		t.Fatalf("interval = %v after decimation, want > 10us", s.Interval())
	}
	// X must be strictly increasing and evenly spaced at the final interval
	// over the tail (all samples re-land on the doubled grid each round).
	for i := 1; i < s.N(); i++ {
		if s.X[i] <= s.X[i-1] {
			t.Fatalf("X not increasing at %d: %v", i, s.X)
		}
	}
	step := s.Interval().Seconds()
	for i := 1; i < s.N(); i++ {
		if d := s.X[i] - s.X[i-1]; d < step*0.999 || d > step*1.001 {
			t.Fatalf("spacing at %d = %gs, want %gs (X=%v)", i, d, step, s.X)
		}
	}
	// The fn above records the interval each sample was taken with; the
	// surviving samples' values must match intervals that were live then
	// (powers of two times the base).
	for i, y := range s.Y {
		iv := Time(y)
		ok := false
		for k := 10 * Microsecond; k <= s.Interval(); k *= 2 {
			if iv == k {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("sample %d recorded interval %v, not a power-of-two multiple of 10us", i, iv)
		}
	}
}

func TestSamplerStopBeforeRun(t *testing.T) {
	// Stopping before the engine ever runs is a no-op start: no samples,
	// no leaked proc, no events left behind.
	e := NewEngine()
	s := StartSampler(e, Microsecond, func() float64 { return 0 })
	s.Stop()
	e.Run()
	if s.N() != 0 {
		t.Fatalf("samples = %d, want 0", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
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
	sample := func() float64 {
		// Bound the run should the stall go unreported.
		if samples++; samples == 1000 {
			ss[0].Stop()
			ss[1].Stop()
		}
		return 0
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
// samplers keep sampling and the run ends when it stops them.
func TestSamplerSleeperIsNoStall(t *testing.T) {
	e := NewEngine()
	a := StartSampler(e, 10*Microsecond, func() float64 { return 0 })
	b := StartSampler(e, 7*Microsecond, func() float64 { return 0 })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Millisecond)
		a.Stop()
		b.Stop()
	})
	if end := e.Run(); end != Millisecond {
		t.Fatalf("Run ended at %v, want 1ms", end)
	}
	// a's tick at 1ms fires after the sleeper's earlier-scheduled wake has
	// stopped it.
	if a.N() != 99 || b.N() != 142 {
		t.Fatalf("samples %d and %d, want 99 and 142", a.N(), b.N())
	}
	if e.LiveProcs() != 0 || e.ticks != 0 {
		t.Fatalf("%d processes and %d ticks left", e.LiveProcs(), e.ticks)
	}
}

// The rule holds only in a Run: a RunUntil caller may add work after the
// deadline, so samplers idle up to it without a stall.
func TestSamplerRunUntilIsNoStall(t *testing.T) {
	e := NewEngine()
	s := StartSampler(e, 10*Microsecond, func() float64 { return 0 })
	q := NewQueue[int]()
	e.Spawn("consumer", func(p *Proc) { q.Get(p) })
	e.RunUntil(100 * Microsecond)
	if s.N() != 10 {
		t.Fatalf("samples = %d, want 10", s.N())
	}
	e.Shutdown()
}

package cpu

import (
	"testing"

	"activesan/internal/cache"
	"activesan/internal/memsys"
	"activesan/internal/sim"
)

func newHostCPU(quantum sim.Time) (*sim.Engine, *CPU) {
	eng := sim.NewEngine()
	mem := memsys.New(eng)
	hier := cache.NewHierarchy(eng, cache.HostHierConfig(), mem, 1<<40)
	c := New(eng, "host", sim.HostClock, hier)
	c.quantum = quantum
	return eng, c
}

func TestComputeChargesBusyCycles(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		c.Compute(p, 1000)
	})
	end := eng.Run()
	want := sim.HostClock.Cycles(1000)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if c.Breakdown().Busy != want {
		t.Fatalf("busy = %v, want %v", c.Breakdown().Busy, want)
	}
}

func TestQuantumDeferral(t *testing.T) {
	eng, c := newHostCPU(10 * sim.Microsecond)
	eng.Spawn("p", func(p *sim.Proc) {
		c.Compute(p, 100) // 50 ns, far below the quantum
		if p.Now() != 0 {
			t.Errorf("small compute slept eagerly at %v", p.Now())
		}
		c.Flush(p)
		if p.Now() != sim.HostClock.Cycles(100) {
			t.Errorf("flush advanced to %v", p.Now())
		}
	})
	eng.Run()
}

func TestLoadMissStalls(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		c.Load(p, 0)
	})
	eng.Run()
	b := c.Breakdown()
	if b.Stall <= 100*sim.Nanosecond {
		t.Fatalf("cold load stalled only %v, want > memory latency", b.Stall)
	}
	// TLB refill handler work was charged as busy.
	if b.Busy != sim.HostClock.Cycles(tlbHandlerCycles) {
		t.Fatalf("busy = %v, want one TLB handler", b.Busy)
	}
}

func TestL1HitIsFree(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		c.Load(p, 0)
		before := c.Breakdown().Stall
		c.Load(p, 0)
		if c.Breakdown().Stall != before {
			t.Error("L1 hit added stall time")
		}
	})
	eng.Run()
}

func TestOutstandingMissWindow(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		// Four store misses to distinct lines should not stall.
		for i := int64(0); i < 4; i++ {
			c.Store(p, i*4096)
		}
		if c.Breakdown().Stall != 0 {
			t.Errorf("first four stores stalled %v", c.Breakdown().Stall)
		}
		// The fifth distinct line must wait for the oldest to drain.
		c.Store(p, 5*4096)
		if c.Breakdown().Stall == 0 {
			t.Error("fifth outstanding line did not stall")
		}
	})
	eng.Run()
}

func TestOutstandingSameLineNotDoubleCounted(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			c.Store(p, 0) // same line every time
		}
		if c.Breakdown().Stall != 0 {
			t.Errorf("repeated same-line stores stalled %v", c.Breakdown().Stall)
		}
	})
	eng.Run()
}

func TestOutstandingExpiry(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			c.Store(p, i*4096)
		}
		// Let everything drain, then four more should again be free.
		p.Sleep(10 * sim.Microsecond)
		before := c.Breakdown().Stall
		for i := int64(10); i < 14; i++ {
			c.Store(p, i*4096)
		}
		if c.Breakdown().Stall != before {
			t.Error("drained window still stalled new stores")
		}
	})
	eng.Run()
}

func TestStallUntilPast(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		p.Sleep(100)
		c.StallUntil(p, 50) // already past: no-op
		if c.Breakdown().Stall != 0 {
			t.Error("past StallUntil charged stall")
		}
	})
	eng.Run()
}

func TestBusyFor(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		c.BusyFor(p, 30*sim.Microsecond) // the paper's per-request OS cost
	})
	end := eng.Run()
	if end != 30*sim.Microsecond {
		t.Fatalf("end = %v, want 30us", end)
	}
	if c.Breakdown().Busy != 30*sim.Microsecond {
		t.Fatalf("busy = %v", c.Breakdown().Busy)
	}
}

func TestTouchRangeCoversLines(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		c.TouchRange(p, 0, 1024, cache.Load) // 16 lines of 64 B
	})
	eng.Run()
	loads, _ := c.Counts()
	if loads != 16 {
		t.Fatalf("loads = %d, want 16", loads)
	}
	// Second pass hits.
	eng2, c2 := newHostCPU(0)
	eng2.Spawn("p", func(p *sim.Proc) {
		c2.TouchRange(p, 0, 1024, cache.Load)
		s := c2.Breakdown().Stall
		c2.TouchRange(p, 0, 1024, cache.Load)
		if c2.Breakdown().Stall != s {
			t.Error("second pass over resident range stalled")
		}
	})
	eng2.Run()
}

func TestSwitchCPUFourTimesSlower(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsys.New(eng)
	hier := cache.NewHierarchy(eng, cache.SwitchHierConfig(), mem, 1<<40)
	sp := New(eng, "sp", sim.SwitchClock, hier)
	sp.quantum = 0
	eng.Spawn("p", func(p *sim.Proc) {
		sp.Compute(p, 1000)
	})
	end := eng.Run()
	_, hostCPU := newHostCPU(0)
	_ = hostCPU
	if end != 4*sim.HostClock.Cycles(1000) {
		t.Fatalf("switch compute = %v, want 4x host", end)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	eng, c := newHostCPU(0)
	eng.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative instruction count did not panic")
			}
		}()
		c.Compute(p, -1)
	})
	eng.Run()
}

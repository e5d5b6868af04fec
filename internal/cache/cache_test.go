package cache

import (
	"testing"
	"testing/quick"

	"activesan/internal/memsys"
	"activesan/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "c", Size: 32 * 1024, LineSize: 64, Assoc: 2}
	if err := good.validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "odd-line", Size: 1024, LineSize: 48, Assoc: 2},
		{Name: "odd-sets", Size: 3 * 1024, LineSize: 64, Assoc: 2},
		{Name: "tiny-line", Size: 64, LineSize: 2, Assoc: 2},
	}
	for _, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, LineSize: 64, Assoc: 2})
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(0, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if hit, _ := c.Access(63, false); !hit {
		t.Fatal("same-line access missed")
	}
	// Next line misses.
	if hit, _ := c.Access(64, false); hit {
		t.Fatal("next-line access hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 64 B lines, 2 sets: lines 0,2,4 (even line numbers) share set 0.
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2})
	c.Access(0, false)   // set 0, way A
	c.Access(128, false) // set 0, way B
	c.Access(0, false)   // touch A so B is LRU
	c.Access(256, false) // evicts line 128
	if !c.Contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(128) {
		t.Fatal("LRU line survived")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestCacheWritebacks(t *testing.T) {
	c := New(Config{Name: "t", Size: 128, LineSize: 64, Assoc: 1})
	c.Access(0, true) // dirty line in set 0
	_, wb := c.Access(128, false)
	if !wb {
		t.Fatal("dirty eviction did not report writeback")
	}
	_, wb = c.Access(256, false)
	if wb {
		t.Fatal("clean eviction reported writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCacheFlush(t *testing.T) {
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2})
	c.Access(0, true)
	c.Access(64, false)
	if d := c.Flush(); d != 1 {
		t.Fatalf("flush reported %d dirty lines, want 1", d)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("lines survived flush")
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Property: a working set no larger than the cache, accessed twice,
	// misses only on the first pass (no conflict misses beyond capacity for
	// a strided sequential walk filling each set evenly).
	f := func(seed uint8) bool {
		c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 2})
		base := int64(seed) * 4096
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < 4096; off += 64 {
				c.Access(base+off, false)
			}
		}
		st := c.Stats()
		return st.Misses == 64 && st.Hits == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty stats miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate = %v, want 0.25", s.MissRate())
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 4096)
	if tlb.Lookup(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Lookup(100) {
		t.Fatal("same-page lookup missed")
	}
	tlb.Lookup(4096) // second entry
	tlb.Lookup(0)    // refresh first
	tlb.Lookup(8192) // evicts page 1 (LRU)
	if !tlb.Lookup(0) {
		t.Fatal("MRU translation evicted")
	}
	if tlb.Lookup(4096) {
		t.Fatal("evicted translation still present")
	}
	if tlb.PageSize() != 4096 {
		t.Fatalf("page size = %d", tlb.PageSize())
	}
}

// A fresh TLB holds no translation, so it misses every page, negative ones
// included.
func TestTLBColdMissesNegativePages(t *testing.T) {
	for _, addr := range []int64{-1, -4096} {
		if NewTLB(64, 4096).Lookup(addr) {
			t.Fatalf("cold TLB hit for address %d", addr)
		}
	}
}

func TestHostHierConfigScaling(t *testing.T) {
	full := HostHierConfig()
	if full.L1D.Size != 32*1024 || full.L2.Size != 512*1024 {
		t.Fatalf("full-size host caches wrong: %+v", full)
	}
	// The database benchmarks' hierarchy: 8 KB L1D and 64 KB L2.
	scaled := ScaledHostHierConfig()
	if scaled.L1D.Size != 8*1024 || scaled.L2.Size != 64*1024 {
		t.Fatalf("scaled host caches wrong: L1D=%d L2=%d", scaled.L1D.Size, scaled.L2.Size)
	}
	if scaled.L1D.LineSize != 64 || scaled.L1D.Assoc != 2 || scaled.L2.LineSize != 128 || scaled.L2.Assoc != 2 {
		t.Fatal("scaling must preserve line size and associativity")
	}
}

func TestSwitchHierConfigMatchesPaper(t *testing.T) {
	c := SwitchHierConfig()
	if c.L1I.Size != 4096 || c.L1I.LineSize != 64 || c.L1I.Assoc != 2 {
		t.Fatalf("switch I$ = %+v", c.L1I)
	}
	if c.L1D.Size != 1024 || c.L1D.LineSize != 32 || c.L1D.Assoc != 2 {
		t.Fatalf("switch D$ = %+v", c.L1D)
	}
	if c.L2 != nil {
		t.Fatal("switch CPU must not have an L2")
	}
}

func newTestHier(t *testing.T) (*sim.Engine, *Hierarchy) {
	t.Helper()
	eng := sim.NewEngine()
	mem := memsys.New(eng)
	return eng, NewHierarchy(eng, HostHierConfig(), mem, 1<<40)
}

func TestHierarchyLevels(t *testing.T) {
	eng, h := newTestHier(t)
	var first, second, evicted Result
	eng.Spawn("cpu", func(p *sim.Proc) {
		first = h.Access(0, Load)
		p.SleepUntil(first.Ready)
		second = h.Access(0, Load)
		// Blow L1 set 0 while keeping L2 resident: L1D is 32 KB 2-way with
		// 64 B lines, so lines 256 KB apart... use addresses that alias in
		// L1 set 0 but are distinct L2 lines.
		l1SetStride := int64(32 * 1024 / 2) // sets*linesize
		h.Access(1*l1SetStride, Load)
		h.Access(2*l1SetStride, Load)
		evicted = h.Access(0, Load)
	})
	eng.Run()
	if first.Level != InMemory {
		t.Fatalf("cold access level = %v, want memory", first.Level)
	}
	if second.Level != InL1 {
		t.Fatalf("warm access level = %v, want L1", second.Level)
	}
	if second.Ready != first.Ready {
		t.Fatalf("L1 hit added latency: %v -> %v", first.Ready, second.Ready)
	}
	if evicted.Level != InL2 {
		t.Fatalf("L1-evicted access level = %v, want L2", evicted.Level)
	}
}

func TestHierarchyTLBWalk(t *testing.T) {
	eng, h := newTestHier(t)
	var r Result
	eng.Spawn("cpu", func(p *sim.Proc) {
		r = h.Access(0, Load)
	})
	eng.Run()
	if !r.TLBMiss {
		t.Fatal("first access should miss the TLB")
	}
	if h.TLBWalks() != 1 {
		t.Fatalf("walks = %d, want 1", h.TLBWalks())
	}
	// Second access to the same page should not walk.
	eng2 := sim.NewEngine()
	mem := memsys.New(eng2)
	h2 := NewHierarchy(eng2, HostHierConfig(), mem, 1<<40)
	eng2.Spawn("cpu", func(p *sim.Proc) {
		h2.Access(0, Load)
		r = h2.Access(64, Load)
	})
	eng2.Run()
	if r.TLBMiss {
		t.Fatal("same-page access missed the TLB")
	}
}

func TestHierarchyIfetchUsesICache(t *testing.T) {
	eng, h := newTestHier(t)
	eng.Spawn("cpu", func(p *sim.Proc) {
		h.Access(0, Ifetch)
		h.Access(0, Ifetch)
	})
	eng.Run()
	if h.L1I().Stats().Accesses != 2 {
		t.Fatalf("L1I accesses = %d, want 2", h.L1I().Stats().Accesses)
	}
	if h.L1D().Stats().Accesses != 0 {
		t.Fatalf("L1D accesses = %d, want 0", h.L1D().Stats().Accesses)
	}
}

func TestSingleLevelHierarchy(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsys.New(eng)
	h := NewHierarchy(eng, SwitchHierConfig(), mem, 1<<40)
	var miss, hit Result
	eng.Spawn("sp", func(p *sim.Proc) {
		miss = h.Access(0, Load)
		p.SleepUntil(miss.Ready)
		hit = h.Access(0, Load)
	})
	eng.Run()
	if miss.Level != InMemory {
		t.Fatalf("switch D$ cold miss level = %v", miss.Level)
	}
	if hit.Level != InL1 {
		t.Fatalf("switch D$ warm level = %v", hit.Level)
	}
	if miss.TLBMiss {
		t.Fatal("switch CPU should not model TLBs")
	}
}

func TestHashJoinBitVectorThrashesSwitchDCache(t *testing.T) {
	// The paper: "the bit-vector is too big for its limited L1 data cache".
	// A 128 KB bit-vector randomly probed through a 1 KB cache must miss
	// nearly always.
	eng := sim.NewEngine()
	mem := memsys.New(eng)
	h := NewHierarchy(eng, SwitchHierConfig(), mem, 1<<40)
	eng.Spawn("sp", func(p *sim.Proc) {
		state := int64(12345)
		for i := 0; i < 2000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			addr := (state >> 16) & (128*1024 - 1)
			h.Access(addr, Load)
		}
	})
	eng.Run()
	mr := h.L1D().Stats().MissRate()
	if mr < 0.95 {
		t.Fatalf("random 128KB probes through 1KB D$ missed only %.2f", mr)
	}
}

func TestCacheInvariantsProperty(t *testing.T) {
	// Properties over random access sequences: a just-accessed line is
	// resident; counters reconcile (hits+misses == accesses, evictions ==
	// misses - residency growth).
	f := func(addrs []uint16, writes []bool) bool {
		c := New(Config{Name: "p", Size: 2048, LineSize: 64, Assoc: 2})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(int64(a), w)
			if !c.Contains(int64(a)) {
				return false
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		resident := 0
		for a := int64(0); a < 1<<16; a += 64 {
			if c.Contains(a) {
				resident++
			}
		}
		return st.Misses-st.Evictions == int64(resident)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2})
	c.Access(0, true)
	if !c.Invalidate(0) {
		t.Fatal("resident line not invalidated")
	}
	if c.Contains(0) {
		t.Fatal("line survived invalidation")
	}
	if c.Invalidate(0) {
		t.Fatal("absent line reported invalidated")
	}
}

func TestInvalidateRangeDropsBothLevels(t *testing.T) {
	eng, h := newTestHier(t)
	eng.Spawn("cpu", func(p *sim.Proc) {
		h.Access(0, Load)
		h.Access(4096, Load)
		h.InvalidateRange(0, 128)
		if h.L1D().Contains(0) || h.L2().Contains(0) {
			t.Error("invalidated range still resident")
		}
		if !h.L2().Contains(4096) {
			t.Error("unrelated line dropped")
		}
	})
	eng.Run()
}

// Contains reports whether addr's line is resident, without touching
// recency or counters. Used by tests and invariant checks.
func (c *Cache) Contains(addr int64) bool {
	ways, key := c.lookup(addr)
	for _, w := range ways {
		if w|dirtyBit == key {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning how many dirty lines were
// discarded (the caller decides whether to charge writebacks).
func (c *Cache) Flush() (dirty int) {
	for _, w := range c.tags {
		if w&dirtyBit != 0 {
			dirty++
		}
	}
	clear(c.tags)
	return dirty
}

// PageSize returns the translation granularity in bytes.
func (t *TLB) PageSize() int64 { return 1 << t.pageBits }

package cache

import (
	"activesan/internal/sim"

	"activesan/internal/memsys"
)

// Kind classifies a memory reference.
type Kind int

// Reference kinds. Loads stall the processor until the first data returns;
// stores retire into the outstanding-miss window (the CPU model enforces
// the paper's four-outstanding-lines rule).
const (
	Load Kind = iota
	Store
	Ifetch
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Ifetch:
		return "ifetch"
	default:
		return "unknown"
	}
}

// Level identifies where a reference was satisfied.
type Level int

// Hit levels.
const (
	InL1     Level = 1
	InL2     Level = 2
	InMemory Level = 3
)

// Result reports the outcome of one reference.
type Result struct {
	Level   Level
	Ready   sim.Time // absolute instant the data is available
	TLBMiss bool
}

// HierConfig assembles a processor's cache hierarchy.
type HierConfig struct {
	L1I, L1D Config
	L2       *Config // nil for single-level hierarchies (the switch CPU)
	// TLBEntries of 0 disables TLB modelling (the switch CPU uses physical
	// addresses).
	TLBEntries int
	PageSize   int64
	// L1Lat and L2Lat are lookup latencies charged past the first level.
	L1Lat sim.Time
	L2Lat sim.Time
}

// HostHierConfig returns the paper's host hierarchy: 32 KB 2-way split L1,
// 512 KB 2-way L2 with 128-byte lines, 64-entry fully-associative TLBs.
func HostHierConfig() HierConfig {
	l2 := Config{Name: "L2", Size: 512 * 1024, LineSize: 128, Assoc: 2}
	return HierConfig{
		L1I:        Config{Name: "L1I", Size: 32 * 1024, LineSize: 64, Assoc: 2},
		L1D:        Config{Name: "L1D", Size: 32 * 1024, LineSize: 64, Assoc: 2},
		L2:         &l2,
		TLBEntries: 64,
		PageSize:   4096,
		L1Lat:      sim.HostClock.Cycles(1),
		L2Lat:      sim.HostClock.Cycles(12),
	}
}

// ScaledHostHierConfig returns the host hierarchy the paper uses for the
// database benchmarks (HashJoin/Select): "an 8 KB primary data cache and a
// 64 KB secondary cache keeping the same line sizes and associativities",
// which lets a 16 MB x 128 MB join stand in for a 128 MB x 1 GB one.
func ScaledHostHierConfig() HierConfig {
	cfg := HostHierConfig()
	cfg.L1D.Size = 8 * 1024
	cfg.L2.Size = 64 * 1024
	return cfg
}

// SwitchHierConfig returns the embedded switch CPU's caches: a 4 KB 2-way
// instruction cache with 64-byte lines and a 1 KB 2-way data cache with
// 32-byte lines, both supporting a single outstanding request and backed
// directly by the switch's memory.
func SwitchHierConfig() HierConfig {
	return HierConfig{
		L1I:   Config{Name: "SI", Size: 4 * 1024, LineSize: 64, Assoc: 2},
		L1D:   Config{Name: "SD", Size: 1 * 1024, LineSize: 32, Assoc: 2},
		L1Lat: sim.SwitchClock.Cycles(1),
	}
}

// Hierarchy ties caches, TLBs and a memory channel together and prices each
// reference.
type Hierarchy struct {
	eng  *sim.Engine
	cfg  HierConfig
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	itlb *TLB
	dtlb *TLB
	mem  *memsys.RDRAM

	// ptBase is where page-table entries live; TLB walks access it so that
	// walks have realistic cache behaviour.
	ptBase int64

	tlbWalks int64
}

// NewHierarchy builds a hierarchy over the given memory channel.
func NewHierarchy(eng *sim.Engine, cfg HierConfig, mem *memsys.RDRAM, ptBase int64) *Hierarchy {
	h := &Hierarchy{
		eng:    eng,
		cfg:    cfg,
		l1i:    New(cfg.L1I),
		l1d:    New(cfg.L1D),
		mem:    mem,
		ptBase: ptBase,
	}
	if cfg.L2 != nil {
		h.l2 = New(*cfg.L2)
	}
	if cfg.TLBEntries > 0 {
		h.itlb = NewTLB(cfg.TLBEntries, cfg.PageSize)
		h.dtlb = NewTLB(cfg.TLBEntries, cfg.PageSize)
	}
	return h
}

// L1D returns the first-level data cache (for tests and invariants).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L1I returns the first-level instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L2 returns the second-level cache, or nil.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DTLB returns the data TLB, or nil.
func (h *Hierarchy) DTLB() *TLB { return h.dtlb }

// ITLB returns the instruction TLB, or nil.
func (h *Hierarchy) ITLB() *TLB { return h.itlb }

// TLBWalks reports how many page-table walks have occurred.
func (h *Hierarchy) TLBWalks() int64 { return h.tlbWalks }

// Access prices one reference at addr. The returned Result.Ready is the
// absolute time the data is available; the caller decides how much of that
// is architectural stall.
func (h *Hierarchy) Access(addr int64, k Kind) Result {
	now := h.eng.Now()
	ready := now
	var res Result

	l1, tlb := h.l1d, h.dtlb
	if k == Ifetch {
		l1, tlb = h.l1i, h.itlb
	}

	if tlb != nil && !tlb.Lookup(addr) {
		res.TLBMiss = true
		ready = h.walk(addr, ready)
	}

	write := k == Store
	if hit, _ := l1.Access(addr, write); hit {
		res.Level = InL1
		res.Ready = ready
		return res
	}
	ready += h.cfg.L1Lat

	if h.l2 != nil {
		hit, wb := h.l2.Access(addr, write)
		if wb {
			h.mem.Reserve(addr, h.l2.LineSize()) // victim writeback occupies the bus
		}
		if hit {
			res.Level = InL2
			res.Ready = ready + h.cfg.L2Lat
			return res
		}
		ready += h.cfg.L2Lat
		res.Level = InMemory
		fill := h.mem.Reserve(l1LineFill(h.l2, addr), h.l2.LineSize())
		if fill > ready {
			ready = fill
		}
		res.Ready = ready
		return res
	}

	// Single-level hierarchy: miss goes straight to memory.
	res.Level = InMemory
	fill := h.mem.Reserve(l1LineFill(l1, addr), l1.LineSize())
	if fill > ready {
		ready = fill
	}
	res.Ready = ready
	return res
}

// l1LineFill returns the line-aligned fill address for addr.
func l1LineFill(c *Cache, addr int64) int64 { return c.LineBase(addr) }

// walk models a page-table walk: the PTE is itself fetched through the L2
// (so hot walks are cheap and cold walks pay memory latency), plus a fixed
// handler cost folded in by the CPU model.
func (h *Hierarchy) walk(addr int64, ready sim.Time) sim.Time {
	h.tlbWalks++
	vpn := addr / h.cfg.PageSize
	pte := h.ptBase + vpn*8
	if h.l2 == nil {
		fill := h.mem.Reserve(pte, 64)
		if fill > ready {
			ready = fill
		}
		return ready
	}
	hit, _ := h.l2.Access(pte, false)
	if hit {
		return ready + h.cfg.L2Lat
	}
	fill := h.mem.Reserve(h.l2.LineBase(pte), h.l2.LineSize())
	ready += h.cfg.L2Lat
	if fill > ready {
		ready = fill
	}
	return ready
}

// InvalidateRange drops [base, base+n) from the data-side caches — the
// coherence action of a DMA write into host memory. Without it, reused I/O
// buffers would look warm and the paper's cold-miss effects would vanish.
func (h *Hierarchy) InvalidateRange(base, n int64) {
	if n <= 0 {
		return
	}
	step := h.l1d.LineSize()
	for a := h.l1d.LineBase(base); a < base+n; a += step {
		h.l1d.Invalidate(a)
	}
	if h.l2 != nil {
		step = h.l2.LineSize()
		for a := h.l2.LineBase(base); a < base+n; a += step {
			h.l2.Invalidate(a)
		}
	}
}

// Package cpu models the single-issue processor timing of the paper's host
// (2 GHz) and embedded switch (500 MHz) CPUs. Benchmarks charge instruction
// counts and issue memory references; the model accumulates the busy /
// cache-stall / idle breakdown that drives the paper's Figures 4-14.
//
// A load miss stalls the processor until the data returns; prefetch and
// store misses retire into an outstanding-miss window of four cache lines,
// exactly the rule in the paper's Section 4.
//
// For speed, busy time is accrued as a debt and slept in quanta rather than
// per instruction; at any synchronization point the caller flushes the debt
// so cross-component timing stays accurate to within one Quantum (tests can
// set a CPU's quantum to zero for exact accounting).
package cpu

import (
	"fmt"

	"activesan/internal/cache"
	"activesan/internal/sim"
)

// tlbHandlerCycles is the fixed instruction cost of a software TLB refill,
// charged as busy time on top of the walk's memory latency.
const tlbHandlerCycles = 20

// maxOutstandingLines is the paper's limit on in-flight non-blocking misses.
const maxOutstandingLines = 4

// Quantum bounds how much busy time a CPU accrues before it sleeps, for the
// host and the switch processors alike.
const Quantum = 500 * sim.Nanosecond

// Breakdown partitions a processor's time, mirroring the paper's
// execution-time breakdown figures (CPU busy / cache stall / idle).
type Breakdown struct {
	Busy  sim.Time
	Stall sim.Time
}

// missSlot is one in-flight non-blocking miss: the line address and the
// instant its data arrives.
type missSlot struct {
	line  int64
	ready sim.Time
}

// CPU is one processor's timing model.
type CPU struct {
	eng  *sim.Engine
	name string
	clk  sim.Clock
	hier *cache.Hierarchy

	// debt is busy/stall time accrued but not yet slept; it is slept once
	// it reaches quantum, which is Quantum outside tests.
	debt    sim.Time
	quantum sim.Time

	acct Breakdown

	// outstanding is the paper's four-entry window of in-flight non-blocking
	// misses. The window is tiny and bounded, so a fixed array scanned
	// linearly replaces the old map: every memory reference probes it, and
	// the array probe costs a handful of compares with no hashing, no
	// iteration-order tie-breaking and no allocation. Slots [0, nOut) are
	// live, in insertion order.
	outstanding [maxOutstandingLines]missSlot
	nOut        int

	loads, stores int64
}

// New returns a CPU over the given hierarchy.
func New(eng *sim.Engine, name string, clk sim.Clock, hier *cache.Hierarchy) *CPU {
	if hier == nil {
		panic("cpu: nil hierarchy")
	}
	return &CPU{
		eng:     eng,
		name:    name,
		clk:     clk,
		hier:    hier,
		quantum: Quantum,
	}
}

// Name returns the CPU's debug name.
func (c *CPU) Name() string { return c.name }

// Hier returns the cache hierarchy.
func (c *CPU) Hier() *cache.Hierarchy { return c.hier }

// Breakdown returns accumulated busy and stall time, including accrued debt.
func (c *CPU) Breakdown() Breakdown { return c.acct }

// Counts reports how many loads and stores were issued.
func (c *CPU) Counts() (loads, stores int64) {
	return c.loads, c.stores
}

// vnow is the CPU's virtual time: engine time plus unslept debt.
func (c *CPU) vnow() sim.Time { return c.eng.Now() + c.debt }

// Flush sleeps off any accrued debt. Call before synchronizing with other
// components (message sends, I/O waits) so they observe the right clock.
func (c *CPU) Flush(p *sim.Proc) {
	if c.debt > 0 {
		d := c.debt
		c.debt = 0
		p.Sleep(d)
	}
}

func (c *CPU) accrue(p *sim.Proc, d sim.Time) {
	c.debt += d
	if c.debt >= c.quantum {
		c.Flush(p)
	}
}

// Compute charges n instructions of busy time (one instruction per cycle,
// the paper's single-issue model).
func (c *CPU) Compute(p *sim.Proc, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("cpu %s: negative instruction count %d", c.name, n))
	}
	d := c.clk.Cycles(n)
	c.acct.Busy += d
	c.accrue(p, d)
}

// BusyFor charges an arbitrary duration as busy time (used for the paper's
// fixed OS overheads, which it attributes to the host CPU).
func (c *CPU) BusyFor(p *sim.Proc, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("cpu %s: negative busy time %v", c.name, d))
	}
	c.acct.Busy += d
	c.accrue(p, d)
}

// StallUntil charges cache-stall time until the absolute instant t (no-op if
// t is already past the CPU's virtual clock).
func (c *CPU) StallUntil(p *sim.Proc, t sim.Time) {
	if d := t - c.vnow(); d > 0 {
		c.acct.Stall += d
		c.accrue(p, d)
	}
}

// Load issues a blocking load; the CPU stalls until the first data returns.
func (c *CPU) Load(p *sim.Proc, addr int64) cache.Result {
	c.loads++
	return c.ref(p, addr, cache.Load, true)
}

// Store issues a write that retires into the outstanding-miss window.
func (c *CPU) Store(p *sim.Proc, addr int64) cache.Result {
	c.stores++
	return c.ref(p, addr, cache.Store, false)
}

// Ifetch models an instruction fetch (blocking, through the I-side).
func (c *CPU) Ifetch(p *sim.Proc, addr int64) cache.Result {
	return c.ref(p, addr, cache.Ifetch, true)
}

func (c *CPU) ref(p *sim.Proc, addr int64, k cache.Kind, blocking bool) cache.Result {
	c.expireOutstanding()
	r := c.hier.Access(addr, k)
	if r.Level == cache.InMemory && c.eng.Tracing() {
		c.eng.Emit("cache", "miss", c.name,
			fmt.Sprintf("%v miss addr=%#x ready=%v", k, addr, r.Ready))
	}
	if r.TLBMiss {
		// The walk's memory time is inside r.Ready; the refill handler is
		// architectural work.
		c.Compute(p, tlbHandlerCycles)
	}
	if r.Level == cache.InL1 {
		return r
	}
	if blocking {
		c.StallUntil(p, r.Ready)
		return r
	}
	// Non-blocking miss: occupy an outstanding-line slot; if four lines are
	// already in flight the processor stalls until the oldest drains.
	line := c.hier.L1D().LineBase(addr)
	for i := 0; i < c.nOut; i++ {
		if c.outstanding[i].line == line {
			return r
		}
	}
	for c.nOut >= maxOutstandingLines {
		// Earliest completion wins; ties break on the lower line address
		// (the same rule the map version used, so timings are unchanged).
		victim := 0
		for i := 1; i < c.nOut; i++ {
			s, v := c.outstanding[i], c.outstanding[victim]
			if s.ready < v.ready || (s.ready == v.ready && s.line < v.line) {
				victim = i
			}
		}
		c.StallUntil(p, c.outstanding[victim].ready)
		c.removeOutstanding(victim)
		c.expireOutstanding()
	}
	c.outstanding[c.nOut] = missSlot{line: line, ready: r.Ready}
	c.nOut++
	return r
}

// removeOutstanding drops slot i, keeping the live prefix dense.
func (c *CPU) removeOutstanding(i int) {
	c.nOut--
	for ; i < c.nOut; i++ {
		c.outstanding[i] = c.outstanding[i+1]
	}
}

// expireOutstanding retires misses whose data has arrived by the CPU's
// virtual clock.
func (c *CPU) expireOutstanding() {
	if c.nOut == 0 {
		return
	}
	now := c.vnow()
	kept := 0
	for i := 0; i < c.nOut; i++ {
		if c.outstanding[i].ready > now {
			c.outstanding[kept] = c.outstanding[i]
			kept++
		}
	}
	c.nOut = kept
}

// TouchRange walks [base, base+n) with the given reference kind at cache-line
// granularity — the common pattern for streaming over a buffer. The kind is
// resolved to a counter and blocking mode once, outside the per-line loop.
func (c *CPU) TouchRange(p *sim.Proc, base, n int64, k cache.Kind) {
	if n <= 0 {
		return
	}
	var count *int64
	blocking := false
	switch k {
	case cache.Load:
		count, blocking = &c.loads, true
	case cache.Store:
		count = &c.stores
	default:
		panic("cpu: TouchRange kind must be load or store")
	}
	step := c.hier.L1D().LineSize()
	for a := c.hier.L1D().LineBase(base); a < base+n; a += step {
		*count++
		c.ref(p, a, k, blocking)
	}
}

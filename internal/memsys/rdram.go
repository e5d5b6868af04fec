// Package memsys models the RDRAM memory system the paper attaches to both
// the host and the switch: 1.6 GB/s peak bandwidth, 100 ns page-hit and
// 122 ns page-miss latency, with banked open-page tracking and FIFO
// controller contention.
package memsys

import (
	"fmt"

	"activesan/internal/sim"
)

// Config holds the timing parameters of one RDRAM channel.
type Config struct {
	// BandwidthBytesPerSec is the peak data rate (paper: 1.6 GB/s).
	BandwidthBytesPerSec float64
	// PageHit is the access latency when the target row is open.
	PageHit sim.Time
	// PageMiss is the access latency when a new row must be activated.
	PageMiss sim.Time
	// PageSize is the row size in bytes.
	PageSize int64
	// Banks is the number of independent banks with open-row tracking.
	Banks int
}

// DefaultConfig returns the paper's RDRAM parameters (Direct RDRAM
// 256/288-Mbit with 2 KB pages across 16 banks).
func DefaultConfig() Config {
	return Config{
		BandwidthBytesPerSec: 1.6e9,
		PageHit:              100 * sim.Nanosecond,
		PageMiss:             122 * sim.Nanosecond,
		PageSize:             2048,
		Banks:                16,
	}
}

func (c Config) validate() error {
	if c.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("memsys: bandwidth must be positive, got %v", c.BandwidthBytesPerSec)
	}
	if c.PageSize <= 0 || c.Banks <= 0 {
		return fmt.Errorf("memsys: page size and banks must be positive")
	}
	if c.PageHit <= 0 || c.PageMiss < c.PageHit {
		return fmt.Errorf("memsys: need 0 < PageHit <= PageMiss")
	}
	return nil
}

// Stats accumulates memory-system activity.
type Stats struct {
	Accesses   int64
	PageHits   int64
	PageMisses int64
	Bytes      int64
}

// RDRAM is one memory channel with its controller. Accesses are serialized
// on the data bus (occupancy = size/bandwidth) while access latency is
// pipelined on top, matching the paper's "maximum bandwidth 1.6 GB/s,
// 100/122 ns latency" model.
type RDRAM struct {
	eng   *sim.Engine
	cfg   Config
	bus   *sim.Server
	open  []int64 // per-bank open row (-1 = none)
	stats Stats
}

// New returns a memory channel; it panics on an invalid configuration since
// that is a programming error in experiment setup.
func New(eng *sim.Engine, cfg Config) *RDRAM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	open := make([]int64, cfg.Banks)
	for i := range open {
		open[i] = -1
	}
	return &RDRAM{
		eng:  eng,
		cfg:  cfg,
		bus:  sim.NewServer(eng),
		open: open,
	}
}

// Stats returns a copy of the accumulated counters.
func (m *RDRAM) Stats() Stats { return m.stats }

// BusBusyTime reports cumulative data-bus occupancy, for utilization
// computed against an externally chosen elapsed time.
func (m *RDRAM) BusBusyTime() sim.Time { return m.bus.BusyTime() }

// bankRow maps an address to its bank and row; consecutive pages stripe
// across banks so sequential streams page-hit heavily.
func (m *RDRAM) bankRow(addr int64) (bank int, row int64) {
	page := addr / m.cfg.PageSize
	return int(page % int64(m.cfg.Banks)), page / int64(m.cfg.Banks)
}

// latency classifies addr as a page hit or miss, updates the open row, and
// returns the access latency.
func (m *RDRAM) latency(addr int64) sim.Time {
	bank, row := m.bankRow(addr)
	if m.open[bank] == row {
		m.stats.PageHits++
		return m.cfg.PageHit
	}
	m.stats.PageMisses++
	m.open[bank] = row
	return m.cfg.PageMiss
}

// Reserve books bus occupancy and latency for an access without blocking,
// returning the completion instant. DMA engines use this to charge memory
// bandwidth for incoming packets without dedicating a process per line.
func (m *RDRAM) Reserve(addr int64, size int64) sim.Time {
	lat := m.latency(addr)
	m.stats.Accesses++
	m.stats.Bytes += size
	xfer := sim.TransferTime(size, m.cfg.BandwidthBytesPerSec)
	return m.bus.Reserve(xfer) + lat
}

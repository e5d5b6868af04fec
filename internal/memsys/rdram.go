// Package memsys models the RDRAM memory system the paper attaches to both
// the host and the switch: 1.6 GB/s peak bandwidth, 100 ns page-hit and
// 122 ns page-miss latency, with banked open-page tracking and FIFO
// controller contention.
package memsys

import "activesan/internal/sim"

// The paper's RDRAM channel (Direct RDRAM 256/288-Mbit with 2 KB pages
// across 16 banks).
const (
	// Bandwidth is the peak data rate in bytes per second.
	Bandwidth = 1.6e9
	// PageHit is the access latency when the target row is open.
	PageHit = 100 * sim.Nanosecond
	// PageMiss is the access latency when a new row must be activated.
	PageMiss = 122 * sim.Nanosecond
	// PageSize is the row size in bytes.
	PageSize = 2048
	// Banks is the number of independent banks with open-row tracking.
	Banks = 16
)

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
	bus   *sim.Server
	open  [Banks]int64 // per-bank open row (-1 = none)
	stats Stats
}

// New returns a memory channel.
func New(eng *sim.Engine) *RDRAM {
	m := &RDRAM{bus: sim.NewServer(eng)}
	for i := range m.open {
		m.open[i] = -1
	}
	return m
}

// Stats returns a copy of the accumulated counters.
func (m *RDRAM) Stats() Stats { return m.stats }

// BusBusyTime reports cumulative data-bus occupancy, for utilization
// computed against an externally chosen elapsed time.
func (m *RDRAM) BusBusyTime() sim.Time { return m.bus.BusyTime() }

// bankRow maps an address to its bank and row; consecutive pages stripe
// across banks so sequential streams page-hit heavily.
func (m *RDRAM) bankRow(addr int64) (bank int, row int64) {
	page := addr / PageSize
	return int(page % Banks), page / Banks
}

// latency classifies addr as a page hit or miss, updates the open row, and
// returns the access latency.
func (m *RDRAM) latency(addr int64) sim.Time {
	bank, row := m.bankRow(addr)
	if m.open[bank] == row {
		m.stats.PageHits++
		return PageHit
	}
	m.stats.PageMisses++
	m.open[bank] = row
	return PageMiss
}

// Reserve books bus occupancy and latency for an access without blocking,
// returning the completion instant. DMA engines use this to charge memory
// bandwidth for incoming packets without dedicating a process per line.
func (m *RDRAM) Reserve(addr int64, size int64) sim.Time {
	lat := m.latency(addr)
	m.stats.Accesses++
	m.stats.Bytes += size
	xfer := sim.TransferTime(size, Bandwidth)
	return m.bus.Reserve(xfer) + lat
}

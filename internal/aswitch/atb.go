package aswitch

import (
	"activesan/internal/san"
)

// ATB is the address translation buffer: a direct-mapped table that turns a
// physical memory address into a (buffer, offset) pair, giving handlers the
// illusion of a flat memory over the streaming data buffers. Each switch CPU
// has its own ATB with one entry per data buffer, indexed by the address's
// 512-byte block number — streams arrive "in order", so consecutive blocks
// occupy consecutive entries and deallocation walks the same way.
type ATB struct {
	entries []*DataBuffer
	// freed is ReleaseBelow's result, reused from call to call.
	freed []*DataBuffer

	hits, misses int64
}

// NewATB builds an n-entry table.
func NewATB(n int) *ATB {
	if n <= 0 {
		panic("aswitch: ATB needs entries")
	}
	return &ATB{entries: make([]*DataBuffer, n)}
}

// slot maps an address to its direct-mapped entry index.
func (a *ATB) slot(addr int64) int {
	return int((addr / san.MTU) % int64(len(a.entries)))
}

// Lookup translates addr; the second result is false when no live mapping
// covers it (the data has not arrived, or was deallocated).
func (a *ATB) Lookup(addr int64) (BufRef, bool) {
	b := a.entries[a.slot(addr)]
	if b != nil && b.Contains(addr) {
		a.hits++
		return b.ref(), true
	}
	a.misses++
	return BufRef{}, false
}

// CanInstall reports whether buf's slot is free.
func (a *ATB) CanInstall(buf *DataBuffer) bool {
	return a.entries[a.slot(buf.addr)] == nil
}

// Install maps buf at its address's slot; the slot must be free.
func (a *ATB) Install(buf *DataBuffer) {
	s := a.slot(buf.addr)
	if a.entries[s] != nil {
		panic("aswitch: ATB slot conflict — caller must wait for CanInstall")
	}
	a.entries[s] = buf
}

// ReleaseBelow removes every mapping wholly below end (the hardware behind
// the paper's Deallocate_Buffer macro: "releasing data buffers holding valid
// mapped addresses less than that end address") and returns the freed
// buffers, in a slice the next call reuses.
func (a *ATB) ReleaseBelow(end int64) []*DataBuffer {
	freed := a.freed[:0]
	for i, b := range a.entries {
		if b != nil && b.End() <= end {
			freed = append(freed, b)
			a.entries[i] = nil
		}
	}
	a.freed = freed
	return freed
}

// Release removes exactly buf's mapping if present.
func (a *ATB) Release(buf *DataBuffer) bool {
	s := a.slot(buf.addr)
	if a.entries[s] == buf {
		a.entries[s] = nil
		return true
	}
	return false
}

// Stats reports lookup hits and misses.
func (a *ATB) Stats() (hits, misses int64) { return a.hits, a.misses }

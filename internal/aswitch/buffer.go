// Package aswitch implements the paper's active switch: a conventional
// central-output-queue switch (package san) extended with a dispatch unit, a
// jump table of handler program counters, an address translation buffer
// (ATB), sixteen 512-byte data buffers with cache-line valid bits, a data
// buffer administrator (DBA), a send unit, and one to four embedded 500 MHz
// switch processors. Handlers are Go functions that run under the switch
// CPU's timing model and access streaming data through the memory-mapped
// buffer abstraction of the paper's Section 2.
package aswitch

import (
	"fmt"

	"activesan/internal/sim"
)

// ValidLineBytes is the granularity of the per-line valid bits inside a data
// buffer. A handler touching a line that has not yet streamed in stalls the
// switch CPU until it becomes valid, which is what lets handlers start
// processing before the copy completes.
const ValidLineBytes int64 = 32

// DataBuffer is one of the switch's on-chip staging buffers. Incoming
// packets fill it at the link rate starting at fillStart; ValidAt computes
// the instant a given byte's line becomes valid, modelling the per-line
// valid bits in O(1) instead of an event per line.
type DataBuffer struct {
	id   int
	addr int64 // mapped physical address of byte 0
	size int64 // bytes occupied

	fillStart sim.Time
	fillRate  float64 // bytes/sec; 0 means valid immediately
	lineBytes int64   // valid-bit granularity; 0 means ValidLineBytes

	payload any

	live     bool
	consumed bool
	output   bool // allocated from the send-unit reserve
	last     bool // the packet carried the message's Last flag
}

// Last reports whether this buffer held its message's final packet —
// handlers over variable-length streams (active-disk pushdown output) use
// it for termination.
func (b *DataBuffer) Last() bool { return b.last }

// ID returns the buffer's slot number.
func (b *DataBuffer) ID() int { return b.id }

// Addr returns the mapped address of the buffer's first byte.
func (b *DataBuffer) Addr() int64 { return b.addr }

// Size returns how many bytes the buffer holds.
func (b *DataBuffer) Size() int64 { return b.size }

// Payload returns the functional content carried by the packet.
func (b *DataBuffer) Payload() any { return b.payload }

// End returns the first mapped address past the buffer's data.
func (b *DataBuffer) End() int64 { return b.addr + b.size }

// Contains reports whether mapped address a falls inside the buffer.
func (b *DataBuffer) Contains(a int64) bool { return a >= b.addr && a < b.addr+b.size }

// ValidAt returns the absolute time the line holding byte offset off becomes
// valid.
func (b *DataBuffer) ValidAt(off int64) sim.Time {
	if off < 0 || off >= b.size && b.size > 0 {
		panic(fmt.Sprintf("aswitch: ValidAt offset %d outside buffer of %d bytes", off, b.size))
	}
	if b.fillRate == 0 {
		return b.fillStart
	}
	lb := b.lineBytes
	if lb <= 0 {
		lb = ValidLineBytes
	}
	lineEnd := (off/lb + 1) * lb
	if lineEnd > b.size {
		lineEnd = b.size
	}
	return b.fillStart + sim.TransferTime(lineEnd, b.fillRate)
}

// TailValidAt returns when the buffer's last byte becomes valid.
func (b *DataBuffer) TailValidAt() sim.Time {
	if b.size == 0 || b.fillRate == 0 {
		return b.fillStart
	}
	return b.ValidAt(b.size - 1)
}

// DBA is the data buffer administrator: it owns the pool of NumBuffers
// on-chip buffers, reserving OutReserve of them for the send unit so that a
// handler composing output can always make progress even when inbound
// streams have filled every admission slot.
type DBA struct {
	inputPermits  *sim.Semaphore
	outputPermits *sim.Semaphore
	// freeIDs recycles slot numbers; DataBuffer structs themselves are
	// allocated fresh so that stale references (e.g. a CPU's arrival list)
	// can never alias a later occupant of the same slot.
	freeIDs []int
	inUse   int
	total   int

	allocs, frees int64
	peak          int
}

// NewDBA builds the administrator with n total buffers, outReserve of which
// are dedicated to output staging.
func NewDBA(n, outReserve int) *DBA {
	if n <= 0 || outReserve < 0 || outReserve >= n {
		panic(fmt.Sprintf("aswitch: bad DBA sizing n=%d outReserve=%d", n, outReserve))
	}
	d := &DBA{
		inputPermits:  sim.NewSemaphore(n - outReserve),
		outputPermits: sim.NewSemaphore(outReserve),
		total:         n,
	}
	for i := n - 1; i >= 0; i-- {
		d.freeIDs = append(d.freeIDs, i)
	}
	return d
}

// AllocInputOrWait takes an admission slot and a buffer for an arriving
// packet, or queues p for the next free slot and reports false — p is woken
// when one frees and calls it again. The dispatch unit waits here, holding
// its input port, which is the backpressure that holds inbound credits.
func (d *DBA) AllocInputOrWait(p *sim.Proc) (*DataBuffer, bool) {
	if !d.inputPermits.AcquireOrWait(p) {
		return nil, false
	}
	return d.take(false), true
}

// AllocOutput takes a send-unit buffer for message composition.
func (d *DBA) AllocOutput(p *sim.Proc) *DataBuffer {
	d.outputPermits.Acquire(p)
	return d.take(true)
}

func (d *DBA) take(output bool) *DataBuffer {
	if len(d.freeIDs) == 0 {
		panic("aswitch: DBA permit accounting broken — no free buffer")
	}
	id := d.freeIDs[len(d.freeIDs)-1]
	d.freeIDs = d.freeIDs[:len(d.freeIDs)-1]
	b := &DataBuffer{id: id, live: true, output: output}
	d.inUse++
	d.allocs++
	if d.inUse > d.peak {
		d.peak = d.inUse
	}
	return b
}

// Free releases a buffer's slot back to the pool. The struct itself is
// dead afterwards (live=false) and is never reused.
func (d *DBA) Free(b *DataBuffer) {
	if !b.live {
		panic(fmt.Sprintf("aswitch: double free of buffer %d", b.id))
	}
	b.live = false
	b.payload = nil
	d.freeIDs = append(d.freeIDs, b.id)
	d.inUse--
	d.frees++
	if b.output {
		d.outputPermits.Release()
	} else {
		d.inputPermits.Release()
	}
}

// InUse reports how many buffers are currently held.
func (d *DBA) InUse() int { return d.inUse }

// Peak reports the high-water mark of held buffers.
func (d *DBA) Peak() int { return d.peak }

// Allocs reports total allocations.
func (d *DBA) Allocs() int64 { return d.allocs }

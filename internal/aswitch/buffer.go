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

	"activesan/internal/san"
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
// valid bits in O(1) instead of an event per line. The DBA reuses its
// buffers; handlers hold them through BufRefs, which go stale when the
// buffer is freed.
type DataBuffer struct {
	id int
	// gen counts the buffer's frees: a BufRef made before the last one is
	// stale.
	gen  uint32
	addr int64 // mapped physical address of byte 0
	size int64 // bytes occupied

	fillStart sim.Time
	lineBytes int64 // valid-bit granularity

	payload any

	live     bool
	consumed bool
	output   bool // allocated from the send-unit reserve
	last     bool // the packet carried the message's Last flag
}

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
	lineEnd := min((off/b.lineBytes+1)*b.lineBytes, b.size)
	return b.fillStart + sim.TransferTime(lineEnd, san.LinkBandwidth)
}

// TailValidAt returns when the buffer's last byte becomes valid.
func (b *DataBuffer) TailValidAt() sim.Time {
	if b.size == 0 {
		return b.fillStart
	}
	return b.ValidAt(b.size - 1)
}

// ref returns a reference to the buffer's current occupant.
func (b *DataBuffer) ref() BufRef { return BufRef{b: b, gen: b.gen} }

// BufRef is a handler's reference to a mapped data buffer: the buffer and
// its generation when the reference was made. WaitStream, NextArrival and
// ATB.Lookup return one. The DBA reuses its buffers, so a reference goes
// stale once its buffer is freed (Deallocate); every Ctx call and accessor
// on a stale reference panics rather than read the buffer's next occupant.
type BufRef struct {
	b   *DataBuffer
	gen uint32
}

// live reports whether the reference still names its buffer's occupant.
func (r BufRef) live() bool { return r.b != nil && r.b.gen == r.gen }

// buf returns the referenced buffer, panicking on a stale reference.
func (r BufRef) buf() *DataBuffer {
	if !r.live() {
		id := -1
		if r.b != nil {
			id = r.b.id
		}
		panic(fmt.Sprintf("aswitch: stale reference to data buffer %d, used after it was freed", id))
	}
	return r.b
}

// Addr returns the mapped address of the buffer's first byte.
func (r BufRef) Addr() int64 { return r.buf().addr }

// Size returns how many bytes the buffer holds.
func (r BufRef) Size() int64 { return r.buf().size }

// End returns the first mapped address past the buffer's data.
func (r BufRef) End() int64 { return r.buf().End() }

// Last reports whether the buffer holds its message's final packet —
// handlers over variable-length streams (active-disk pushdown output) use
// it for termination.
func (r BufRef) Last() bool { return r.buf().last }

// DBA is the data buffer administrator: it owns the pool of NumBuffers
// on-chip buffers, reserving OutReserve of them for the send unit so that a
// handler composing output can always make progress even when inbound
// streams have filled every admission slot.
type DBA struct {
	inputPermits  *sim.Semaphore
	outputPermits *sim.Semaphore
	// bufs are the buffers, made at the first admission and reused for
	// every occupant; freeIDs lists the free ones. A stale reference (a
	// handler's, or a CPU's arrival list) cannot alias a later occupant:
	// BufRef checks the generation.
	bufs    []DataBuffer
	freeIDs []int
	inUse   int
	total   int
	peak    int
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
	if d.bufs == nil {
		d.bufs = make([]DataBuffer, d.total)
	}
	id := d.freeIDs[len(d.freeIDs)-1]
	d.freeIDs = d.freeIDs[:len(d.freeIDs)-1]
	b := &d.bufs[id]
	*b = DataBuffer{id: id, gen: b.gen, live: true, output: output}
	d.inUse++
	if d.inUse > d.peak {
		d.peak = d.inUse
	}
	return b
}

// Free releases a buffer back to the pool, staling every reference to it.
func (d *DBA) Free(b *DataBuffer) {
	if !b.live {
		panic(fmt.Sprintf("aswitch: double free of buffer %d", b.id))
	}
	b.live = false
	b.gen++
	b.payload = nil
	d.freeIDs = append(d.freeIDs, b.id)
	d.inUse--
	if b.output {
		d.outputPermits.Release()
	} else {
		d.inputPermits.Release()
	}
}

// InUse reports how many buffers are currently held.
func (d *DBA) InUse() int { return d.inUse }

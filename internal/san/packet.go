// Package san models the system-area network of the paper: 128-bit packet
// headers carrying a 64-bit active sub-header, 512-byte MTU links at 1 GB/s
// with credit-based flow control, routing tables, and a virtual cut-through
// switch based on a central output queue (the IBM Switch-3 scheme the paper
// starts from). The active extensions live in package aswitch.
package san

import (
	"fmt"
	"sync"
)

// NodeID identifies an endpoint or switch in the fabric.
type NodeID int

// NoNode is the zero value guard for unset destinations.
const NoNode NodeID = -1

// Standard fabric parameters from the paper's Section 4.
const (
	// MTU is the maximum transfer unit (512 bytes for all experiments).
	MTU int64 = 512
	// HeaderBytes is the 128-bit packet header.
	HeaderBytes int64 = 16
)

// Type classifies a packet's role.
type Type int

// Packet types.
const (
	// Data carries a payload segment of a bulk message.
	Data Type = iota
	// ActiveMsg invokes a handler on an active switch (the paper's active
	// message with a 6-bit handler ID in the header).
	ActiveMsg
	// IORequest asks a TCA to perform a disk operation.
	IORequest
	// Control carries small notifications (completions, doorbells).
	Control
	// Ack carries end-to-end delivery acknowledgements (positive or
	// negative) for the optional reliability layer; see reliable.go.
	Ack
)

func (t Type) String() string {
	switch t {
	case Data:
		return "data"
	case ActiveMsg:
		return "active"
	case IORequest:
		return "ioreq"
	case Control:
		return "control"
	case Ack:
		return "ack"
	default:
		return "unknown"
	}
}

// Header is the paper's 128-bit header. The active sub-header (64 bits)
// holds a 6-bit handler ID, a 32-bit address to which the packet's data
// buffer is memory-mapped on the active switch, and — for the multi-CPU
// extension of Section 5 — a switch CPU ID.
type Header struct {
	Src, Dst NodeID
	Type     Type

	// HandlerID selects the switch handler (6 bits: 0..63).
	HandlerID int
	// Addr is the 32-bit mapped address of this packet's payload in the
	// handler's address space.
	Addr int64
	// CPUID directs dispatch to a specific switch CPU (-1 = any).
	CPUID int

	// Flow groups the packets of one message for reassembly; Seq orders
	// them; Last marks the final packet.
	Flow int64
	Seq  int
	Last bool
}

// MaxHandlerID is the largest handler index encodable in the 6-bit field.
const MaxHandlerID = 63

// Packet is one MTU-or-smaller unit on a link. Payload carries the
// functional content (the benchmarks really transform their data); Size is
// the architectural size used for all timing, so payloads may be logical
// descriptors for workloads too large to materialize.
type Packet struct {
	Hdr     Header
	Size    int64 // payload bytes (header accounted separately by links)
	Payload any
	// Corrupt marks a packet whose payload was damaged in flight (set only
	// by fault injection, on a copy — the sender's packet stays clean for
	// retransmission). Receivers treat it as a CRC failure and discard.
	Corrupt bool
	// owners are the holds on a pooled packet not yet released (see pool).
	owners Owner
	// Stamp is the in-band telemetry record (nil = telemetry off). Every
	// stage on the data path checks for nil before touching it, so the
	// disarmed configuration costs one pointer test per stage.
	Stamp *Stamp

	// hop is the link the packet is crossing, nil once its head has
	// arrived: its delivery event is the packet itself (arrival), which
	// puts it on that link's receive queue. A packet crosses one link at a
	// time, so a retransmission leaves as a copy while the original may
	// still be in the fabric.
	hop *Link
	// pool is the PacketPool that minted the packet, nil for one built
	// directly.
	pool *PacketPool
}

// Wire returns the packet's on-wire size including the header.
func (p *Packet) Wire() int64 { return p.Size + HeaderBytes }

// arrival is a packet's typed delivery event: when it fires, the packet's
// head reaches the receiving end of its hop.
type arrival Packet

// Fire puts the packet on its link's receive queue.
func (a *arrival) Fire() {
	pkt := (*Packet)(a)
	l := pkt.hop
	pkt.hop = nil
	l.rx.Put(pkt)
}

// detached returns a copy of pkt that no pool owns and no link carries, for
// the fault path's corrupt copies and the retransmit engine: nothing ever
// releases such a copy, and the original keeps its own holds.
func (pkt *Packet) detached() *Packet {
	cp := *pkt
	cp.pool, cp.owners, cp.hop = nil, 0, nil
	return &cp
}

// Owner names one of a pooled packet's two holds.
type Owner uint8

// A pooled packet's holds.
const (
	// Sender holds the packet until its send is over: the tail has left and
	// the sender has read what it needs of it (Adapter.Sent, or a switch
	// handler's Inject returning).
	Sender Owner = 1 << iota
	// Sink holds it until the component that consumes or drops it is done:
	// an adapter's receive engine after Device.Accept, or a switch input
	// port after its local delivery or a drop.
	Sink
)

// Release ends o's hold on pkt. Once both holds are released a pooled
// packet goes back to its pool, zeroed, for the pool's owner to mint again;
// nothing may touch it after its holder's release. A packet built directly
// rather than by a PacketPool has no holds, and Release does nothing.
// Releasing a hold twice panics.
func (pkt *Packet) Release(o Owner) {
	pp := pkt.pool
	if pp == nil {
		return
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pkt.owners&o == 0 {
		panic(fmt.Sprintf("san: double release of packet flow=%d seq=%d", pkt.Hdr.Flow, pkt.Hdr.Seq))
	}
	if pkt.owners &^= o; pkt.owners == 0 {
		*pkt = Packet{pool: pp}
		pp.back = append(pp.back, pkt)
	}
}

// PacketPool recycles the packets one component mints: an adapter's
// transmit or disk engine, or an active switch's send unit. Get runs only
// on the owner's engine. Release may run on any partition's engine — the
// sink is often across a partition cut — so released packets collect under
// a lock and Get takes them back in batches. Packets that a reliability
// tracker holds, or that the fault path drops or copies, are never
// released by both holders; the GC keeps those.
type PacketPool struct {
	free []*Packet // packets Get hands out next
	mu   sync.Mutex
	back []*Packet // released packets, guarded by mu
}

// Get returns a zeroed packet held by both its Sender and its Sink.
func (pp *PacketPool) Get() *Packet {
	if len(pp.free) == 0 {
		pp.mu.Lock()
		pp.free, pp.back = pp.back, pp.free
		pp.mu.Unlock()
		if len(pp.free) == 0 {
			return &Packet{pool: pp, owners: Sender | Sink}
		}
	}
	n := len(pp.free) - 1
	pkt := pp.free[n]
	pp.free[n] = nil
	pp.free = pp.free[:n]
	pkt.owners = Sender | Sink
	return pkt
}

// Message is a logical transfer larger than one packet. Senders segment it;
// receivers reassemble by (Src, Flow).
type Message struct {
	Hdr     Header
	Size    int64
	Payload any
	// Split, when set, provides per-packet payloads (see Packets).
	Split func(i int, off, n int64) any
}

// NumPackets reports how many packets m segments into: one per MTU of
// payload, and one for an empty message.
func (m *Message) NumPackets() int {
	if m.Size <= 0 {
		return 1
	}
	return int((m.Size + MTU - 1) / MTU)
}

// Segment fills pkt, a zeroed packet, as packet i of m, so that a sender
// can build a message's packets one at a time. The payload rides on the
// first packet unless a split function is available (the argument wins
// over m.Split), in which case split(i, off, n) provides packet i's payload
// covering [off, off+n) of the message. An empty message is one packet of
// size 0 carrying m.Payload.
func (m *Message) Segment(pkt *Packet, i int, split func(i int, off, n int64) any) {
	pkt.Hdr = m.Hdr
	pkt.Hdr.Seq = i
	if m.Size <= 0 {
		pkt.Hdr.Last = true
		pkt.Payload = m.Payload
		return
	}
	if split == nil {
		split = m.Split
	}
	off := int64(i) * MTU
	sz := min(m.Size-off, MTU)
	pkt.Size = sz
	pkt.Hdr.Addr = m.Hdr.Addr + off
	pkt.Hdr.Last = off+sz == m.Size
	if split != nil {
		pkt.Payload = split(i, off, sz)
	} else if i == 0 {
		pkt.Payload = m.Payload
	}
}

// Packets segments m into all of its packets at once (see Segment).
func (m *Message) Packets(split func(i int, off, n int64) any) []*Packet {
	pkts := make([]*Packet, m.NumPackets())
	for i := range pkts {
		pkts[i] = new(Packet)
		m.Segment(pkts[i], i, split)
	}
	return pkts
}

// SliceSplit returns a split function over a byte slice, for messages whose
// payload is literal data.
func SliceSplit(data []byte) func(i int, off, n int64) any {
	return func(_ int, off, n int64) any {
		if data == nil {
			return nil
		}
		return data[off : off+n]
	}
}

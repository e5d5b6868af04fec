package san

import (
	"fmt"

	"activesan/internal/sim"
)

// LinkBandwidth is every link's serialization rate in bytes per second: the
// paper's 1 GB/s per direction.
const LinkBandwidth = 1e9

// LinkConfig sets a link's physical parameters.
type LinkConfig struct {
	// Propagation is the wire flight time.
	Propagation sim.Time
	// Credits is the receiver's input buffering in packets; the sender
	// consumes one credit per packet and the receiver returns it when the
	// packet leaves its input buffer (credit-based flow control per the
	// InfiniBand model the paper follows).
	Credits int
}

// DefaultLinkConfig returns the paper's link: a short wire and eight packets
// of input buffering per link.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		Propagation: 10 * sim.Nanosecond,
		Credits:     8,
	}
}

// LinkStats counts traffic on one direction of a link.
type LinkStats struct {
	Packets int64
	Bytes   int64 // payload bytes
	// Fault-injection outcomes; all zero unless an injector is armed or the
	// link was taken down.
	Dropped   int64
	Corrupted int64
	Delayed   int64
}

// FaultVerdict is a link injector's decision for one packet.
type FaultVerdict int

// Verdicts.
const (
	// FaultPass delivers the packet normally (optionally delayed).
	FaultPass FaultVerdict = iota
	// FaultDrop loses the packet in flight; the link restores the consumed
	// credit once the tail would have cleared the wire.
	FaultDrop
	// FaultCorrupt delivers a damaged copy; receivers discard it as a CRC
	// failure.
	FaultCorrupt
)

// LinkInjector decides the fate of each packet entering a link. The extra
// delay applies to delivered packets (pass or corrupt). Implementations must
// be deterministic — seeded PRNG or schedule only, never wall-clock. When
// the link is down the link drops regardless of the verdict; an injector
// that keeps loss accounting should check Down itself and vote FaultDrop.
type LinkInjector interface {
	OnTransmit(l *Link, pkt *Packet) (FaultVerdict, sim.Time)
}

// Link is one direction of a cable: packets are serialized at the sender,
// fly for the propagation delay, and appear at the receiver's input queue.
// Delivery events fire at *head* arrival (virtual cut-through): the receiver
// may begin routing/filling immediately, while per-link serialization keeps
// bandwidth honest.
type Link struct {
	eng     *sim.Engine
	name    string
	cfg     LinkConfig
	line    *sim.Server
	credits *sim.Semaphore
	rx      *sim.Queue[*Packet]
	stats   LinkStats
	inj     LinkInjector
	down    bool
	// minCredits is the credit low-water mark, tracked only for stamped
	// packets so the telemetry-off path stays untouched; cfg.Credits until
	// telemetry observes the link.
	minCredits int

	// cross, when set, marks this link as a partition cut: the sender side
	// (serialization, credits, stats) stays on eng, while deliveries hand
	// off to the receiving partition's engine through the channel and
	// credits return the same way.
	cross *sim.Channel
}

// creditReturn is a link's credit return as a typed event: posting it
// allocates nothing.
type creditReturn Link

// Fire hands the credit back to the sender.
func (c *creditReturn) Fire() { c.credits.Release() }

// NewLink builds a link.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig) *Link {
	if cfg.Credits <= 0 {
		panic("san: link needs at least one credit")
	}
	return &Link{
		eng:        eng,
		name:       name,
		cfg:        cfg,
		line:       sim.NewServer(eng),
		credits:    sim.NewSemaphore(cfg.Credits),
		rx:         sim.NewQueue[*Packet](),
		minCredits: cfg.Credits,
	}
}

// Name returns the link's debug name.
func (l *Link) Name() string { return l.name }

// Engine returns the engine the link's sender side runs on. For a partition
// cut link this is the sending partition's engine.
func (l *Link) Engine() *sim.Engine { return l.eng }

// SetCross routes the link's deliveries and credit returns through a
// cross-partition channel; call before the simulation starts, on links whose
// receiver lives on a different engine than the sender.
func (l *Link) SetCross(ch *sim.Channel) { l.cross = ch }

// Stats returns a copy of the traffic counters.
func (l *Link) Stats() LinkStats { return l.stats }

// MinCredits reports the credit low-water mark seen by stamped packets —
// the backpressure watermark the telemetry recorder harvests. Equal to the
// configured credit count until telemetry observes contention.
func (l *Link) MinCredits() int { return l.minCredits }

// BusyTime reports cumulative serialization time, for utilization computed
// against an externally chosen elapsed time (the metrics registry divides
// by the workload's end rather than the engine clock).
func (l *Link) BusyTime() sim.Time { return l.line.BusyTime() }

// traceSend emits the packet-send trace event when tracing is on. Every send
// emits it before waiting for a credit.
func (l *Link) traceSend(pkt *Packet) {
	if l.eng.Tracing() {
		l.emitSend(pkt)
	}
}

// emitSend emits the typed packet-send event, kept out of traceSend so the
// guard inlines and a run without tracing pays nothing.
func (l *Link) emitSend(pkt *Packet) {
	l.eng.Emit("packet", "send", l.name, fmt.Sprintf("%s pkt src=%d dst=%d flow=%d seq=%d size=%d",
		pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, pkt.Size))
}

// Send transmits pkt, blocking the caller for credit acquisition and
// serialization start. The caller regains control once the packet is on the
// wire (its tail has left the sender), modelling a DMA engine that moves to
// the next packet as soon as the line frees.
func (l *Link) Send(p *sim.Proc, pkt *Packet) {
	l.traceSend(pkt)
	l.credits.Acquire(p)
	p.SleepUntil(l.transmit(pkt))
}

// SendAsync is Send without blocking for serialization (the caller only
// blocks if no credit is available). Used by senders that pipeline many
// packets from one process.
func (l *Link) SendAsync(p *sim.Proc, pkt *Packet) {
	l.traceSend(pkt)
	l.credits.Acquire(p)
	l.transmit(pkt)
}

// Sending carries a step process's send across Send's two waits, a link
// credit and the packet's tail leaving. Its zero value starts one.
type Sending struct {
	wait int
}

// Sending waits.
const (
	sendStart  = iota // not yet traced
	sendCredit        // a link credit
	sendWire          // the packet's tail to leave
)

// SendOrWait is the non-blocking Send for step processes, built from the
// same pieces. Call it with a zero Sending, then with the same packet and
// Sending on every later wake, until it reports true: the packet's tail has
// then left, as Send would return, and the Sending is zero again.
func (l *Link) SendOrWait(p *sim.Proc, pkt *Packet, s *Sending) bool {
	switch s.wait {
	case sendStart:
		l.traceSend(pkt)
		s.wait = sendCredit
		fallthrough
	case sendCredit:
		if !l.credits.AcquireOrWait(p) {
			return false
		}
		p.WakeAt(l.transmit(pkt))
		s.wait = sendWire
		return false
	}
	*s = Sending{}
	return true
}

// DeliveryLookahead is the least time from a sender's action to the head of
// a packet landing at the far end of a link with cfg: the bound a partition
// cut's delivery channel may assume. transmit reserves the line for the
// packet's Wire() bytes — its size plus the HeaderBytes header — starting
// no earlier than now, and lands the head at the reservation's end less the
// payload's transfer time, plus the propagation. So the header's wire time
// always precedes the head (virtual cut-through forwards a packet once its
// header is in), fault delays only add to it, and deliver is the only
// caller of Channel.Deliver. At LinkBandwidth every byte takes a whole
// 1,000 ps, so the bound is exact.
func DeliveryLookahead(cfg LinkConfig) sim.Time {
	return sim.TransferTime(HeaderBytes, LinkBandwidth) + cfg.Propagation
}

// transmit serializes pkt on the line — the caller already holds a send
// credit — and schedules its delivery (or fate, under fault injection). It
// returns the serialization end time, when Send returns.
func (l *Link) transmit(pkt *Packet) (end sim.Time) {
	end = l.line.Reserve(sim.TransferTime(pkt.Wire(), LinkBandwidth))
	headAt := end - sim.TransferTime(pkt.Size, LinkBandwidth) + l.cfg.Propagation
	l.stats.Packets++
	l.stats.Bytes += pkt.Size
	if st := pkt.Stamp; st != nil {
		st.Add(HopWire, l.name, l.eng.Now(), headAt)
		if a := l.credits.Available(); a < l.minCredits {
			l.minCredits = a
		}
	}
	if l.inj == nil && !l.down {
		l.deliver(headAt, pkt)
		return end
	}
	l.faultXmit(pkt, headAt)
	return end
}

// deliver schedules pkt's head arrival at the receiver: directly on the
// engine, or through the cut channel when the receiver is another partition.
// The event is the packet itself, which records the link as its hop until
// the head arrives; sending it on while it is still crossing would misroute
// that arrival, so it panics.
func (l *Link) deliver(headAt sim.Time, pkt *Packet) {
	if pkt.hop != nil {
		panic(fmt.Sprintf("san: %s packet src=%d dst=%d flow=%d seq=%d sent on %s while still crossing %s",
			pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, l.name, pkt.hop.name))
	}
	pkt.hop = l
	if l.cross != nil {
		l.cross.Deliver(headAt, (*arrival)(pkt))
		return
	}
	l.eng.Post(headAt, (*arrival)(pkt))
}

// faultXmit is the slow delivery path, reached only when an injector is
// armed or the link is down; the zero-fault fast path above never calls it.
func (l *Link) faultXmit(pkt *Packet, headAt sim.Time) {
	verdict, delay := FaultPass, sim.Time(0)
	if l.inj != nil {
		verdict, delay = l.inj.OnTransmit(l, pkt)
	}
	if l.down {
		verdict = FaultDrop
	}
	switch verdict {
	case FaultDrop:
		l.stats.Dropped++
		if l.eng.Tracing() {
			l.eng.Emit("fault", "link_drop", l.name, fmt.Sprintf("%s pkt dst=%d flow=%d seq=%d",
				pkt.Hdr.Type, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq))
		}
		// The receiver will never see this packet, so it can never return
		// the credit; restore it when the tail would have cleared the wire
		// (hardware: the link-level credit sync that follows a lost symbol)
		// or flow control wedges forever.
		l.eng.Post(l.TailTime(headAt, pkt.Size), (*creditReturn)(l))
		return
	case FaultCorrupt:
		l.stats.Corrupted++
		pkt = pkt.detached()
		pkt.Corrupt = true
	}
	if delay > 0 {
		l.stats.Delayed++
	}
	l.deliver(headAt+delay, pkt)
}

// SetInjector arms (or, with nil, disarms) fault injection on this link.
func (l *Link) SetInjector(inj LinkInjector) { l.inj = inj }

// SetDown marks the link down (every packet is lost) or back up. Credits
// consumed by lost packets are restored on the usual schedule, so traffic
// sent into a dead link drains rather than deadlocks.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// Up reports the opposite of Down, for route-selection call sites.
func (l *Link) Up() bool { return !l.down }

// Recv blocks until a packet's head arrives and returns it. The receiver
// owns the packet's input-buffer credit and must call ReturnCredit once the
// packet has left its input stage.
func (l *Link) Recv(p *sim.Proc) *Packet {
	return l.rx.Get(p)
}

// RecvOrWait is the non-blocking Recv for step processes: it returns a
// delivered packet, or queues p to be woken by the next delivery and
// reports false.
func (l *Link) RecvOrWait(p *sim.Proc) (*Packet, bool) { return l.rx.GetOrWait(p) }

// TryRecv returns a delivered packet without blocking.
func (l *Link) TryRecv() (*Packet, bool) { return l.rx.TryGet() }

// ReturnCredit hands one input-buffer slot back to the sender. On a cut
// link the caller runs on the receiving partition; the credit crosses back
// at the receiver's current time so the sender observes the exact serial
// flow-control schedule.
func (l *Link) ReturnCredit() {
	if l.cross != nil {
		l.cross.Credit((*creditReturn)(l))
		return
	}
	l.credits.Release()
}

// TailTime returns when the last byte of a packet delivered at headAt
// finishes arriving.
func (l *Link) TailTime(headAt sim.Time, size int64) sim.Time {
	return headAt + sim.TransferTime(size, LinkBandwidth)
}

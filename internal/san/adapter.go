package san

import "activesan/internal/sim"

// Device is the side a channel adapter serves: a host's memory behind an
// HCA, or a disk behind a TCA.
type Device interface {
	// Accept takes one packet off the adapter's receive engine: every
	// CRC-clean arrival or, with reliability armed, every in-order,
	// first-seen one. It runs on that engine, which returns the packet's
	// credit afterwards, so it must not wait. It borrows the packet: the
	// engine releases it on return, so Accept copies whatever it keeps.
	Accept(p *sim.Proc, pkt *Packet)
}

// Adapter is what every channel adapter shares, whether it attaches a host
// (nic.NIC) or a disk (iodev.StorageNode): its two links, the receive
// engine, and the optional end-to-end reliability layer with its Ack/Nak
// dispatch and retransmit engine. A device embeds one built by NewAdapter
// and starts it from its own Start.
type Adapter struct {
	eng  *sim.Engine
	id   NodeID
	name string
	in   *Link
	out  *Link
	dev  Device

	// Optional end-to-end reliability (nil unless EnableReliability ran):
	// tx tracks outgoing packets for retransmission, rel orders and acks
	// incoming ones, rtxq feeds the retransmit engine.
	tx   *TxTracker
	rel  *RxTracker
	rtxq *sim.Queue[*Packet]

	// rtx is the retransmit engine's packet in flight, nil while it waits
	// for one, and rtxSend its send. rtxPackets and rtxBytes count what that
	// engine has put on the wire.
	rtx                  *Packet
	rtxSend              Sending
	rtxPackets, rtxBytes int64

	// pool mints the packets the device's engine sends.
	pool PacketPool

	started bool
}

// NewAdapter returns the adapter of node id, which receives on in, sends on
// out and hands accepted packets to dev. It returns a value for the device
// to embed, so dev is typically the device itself.
func NewAdapter(eng *sim.Engine, id NodeID, name string, in, out *Link, dev Device) Adapter {
	return Adapter{eng: eng, id: id, name: name, in: in, out: out, dev: dev}
}

// ID returns the adapter's node id.
func (a *Adapter) ID() NodeID { return a.id }

// Name returns the adapter's debug name.
func (a *Adapter) Name() string { return a.name }

// In returns the link the adapter receives on.
func (a *Adapter) In() *Link { return a.in }

// Out returns the link the adapter sends on.
func (a *Adapter) Out() *Link { return a.out }

// Started reports whether Start ran.
func (a *Adapter) Started() bool { return a.started }

// Start spawns the adapter's step processes in order: the receive engine
// (name+rx), the device's engine (name+dev, running step) and, when
// reliability is armed, the retransmit engine (name+".rtx").
func (a *Adapter) Start(rx, dev string, step func(*sim.Proc)) {
	if a.started {
		panic("san: double Start of adapter " + a.name)
	}
	a.started = true
	a.eng.SpawnStep(a.name+rx, a.rxStep)
	a.eng.SpawnStep(a.name+dev, step)
	if a.tx != nil {
		a.eng.SpawnStep(a.name+".rtx", a.rtxStep)
	}
}

// EnableReliability arms end-to-end retransmission on this adapter: outgoing
// packets are tracked until acknowledged, incoming ones are reordered,
// deduplicated, and acknowledged. Must run before Start. Returns the tx
// tracker so callers can wire its resolve hook.
func (a *Adapter) EnableReliability(cfg RetxConfig) *TxTracker {
	if a.started {
		panic("san: EnableReliability after Start of adapter " + a.name)
	}
	if a.tx != nil {
		return a.tx
	}
	a.rtxq = sim.NewQueue[*Packet]()
	enqueue := func(pkt *Packet) { a.rtxq.Put(pkt) }
	a.tx = NewTxTracker(a.eng, cfg, enqueue)
	a.rel = NewRxTracker(a.id, enqueue)
	return a.tx
}

// SetRelFilter restricts both reliability trackers to peers that speak the
// protocol (see TxTracker.SetTrackable); packets to and from other nodes
// bypass tracking entirely. No-op when reliability is disabled.
func (a *Adapter) SetRelFilter(fn func(NodeID) bool) {
	if a.tx != nil {
		a.tx.SetTrackable(fn)
		a.rel.SetTrackable(fn)
	}
}

// RelStats returns the reliability counters (zero when disabled).
func (a *Adapter) RelStats() (TxStats, RxStats) {
	if a.tx == nil {
		return TxStats{}, RxStats{}
	}
	return a.tx.Stats(), a.rel.Stats()
}

// Pool returns the pool the device's engine mints its packets from.
func (a *Adapter) Pool() *PacketPool { return &a.pool }

// Sent ends the send of pkt, whose tail has just left on the adapter's
// link: with reliability armed the TxTracker records it for
// retransmission, and so keeps it for good; otherwise the sender's hold on
// it ends. The caller reads what it needs of pkt first.
func (a *Adapter) Sent(pkt *Packet) {
	if a.tx != nil {
		a.tx.Record(pkt)
		return
	}
	pkt.Release(Sender)
}

// RetxTraffic reports the packets and payload bytes the retransmit engine
// has put on the wire: retransmissions and ACK/NAK control packets.
func (a *Adapter) RetxTraffic() (packets, bytes int64) { return a.rtxPackets, a.rtxBytes }

// rxStep is the receive engine: it never waits except for the next packet.
func (a *Adapter) rxStep(p *sim.Proc) {
	for {
		pkt, ok := a.in.RecvOrWait(p)
		if !ok {
			return
		}
		a.receive(p, pkt)
		a.in.ReturnCredit()
	}
}

// receive handles one arrived packet, the adapter being its sink; the
// caller returns its credit.
func (a *Adapter) receive(p *sim.Proc, pkt *Packet) {
	if a.rel == nil {
		// Without the reliability layer a corrupt packet is simply lost at
		// the adapter's CRC check.
		if !pkt.Corrupt {
			a.dev.Accept(p, pkt)
		}
		pkt.Release(Sink)
		return
	}
	// The CRC check comes first, for control packets too: the RxTracker
	// counts a corrupt ACK or NAK as the CRC drop it is, and its flow is
	// neither retired nor retransmitted. The trackers may hold what they
	// see, so nothing here is released.
	if pkt.Hdr.Type == Ack && !pkt.Corrupt {
		switch info := pkt.Payload.(type) {
		case AckInfo:
			a.tx.OnAck(pkt.Hdr.Src, info)
		case NakInfo:
			a.tx.OnNak(pkt.Hdr.Src, info)
		}
		return
	}
	for _, q := range a.rel.Observe(pkt) {
		a.dev.Accept(p, q)
	}
}

// rtxStep drains retransmissions and ACK/NAK control packets onto the link;
// a separate engine so timer callbacks never block and retransmissions
// interleave with fresh traffic rather than preempting it. It sends a copy
// of each: a retransmitted packet may leave while its original is still in
// the fabric, and a packet crosses one link at a time.
func (a *Adapter) rtxStep(p *sim.Proc) {
	for {
		if a.rtx == nil {
			pkt, ok := a.rtxq.GetOrWait(p)
			if !ok {
				return
			}
			a.rtx = pkt.detached()
		}
		if !a.out.SendOrWait(p, a.rtx, &a.rtxSend) {
			return
		}
		a.rtxPackets++
		a.rtxBytes += a.rtx.Size
		a.rtx = nil
	}
}

// Package nic models the host channel adapter: a queue-pair interface that
// segments outgoing messages into MTU packets, reassembles incoming packets
// into completions, and DMAs payloads against the host's RDRAM channel so
// that I/O traffic and CPU memory references contend for the same bandwidth.
// It also accumulates the "host I/O traffic" metric of the paper's figures —
// total bytes in and out of the host.
package nic

import (
	"fmt"

	"activesan/internal/memsys"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Completion is one fully-arrived message.
type Completion struct {
	Hdr      san.Header // header of the final packet
	Size     int64      // payload bytes across all packets
	Payloads []any      // per-packet payloads in arrival order
	FirstAt  sim.Time   // head arrival of the first packet
	DoneAt   sim.Time   // arrival of the last packet
}

// Bytes gathers the payloads into one slice when they are literal data.
func (c *Completion) Bytes() []byte {
	var out []byte
	for _, p := range c.Payloads {
		if b, ok := p.([]byte); ok {
			out = append(out, b...)
		}
	}
	return out
}

// Stats counts adapter traffic.
type Stats struct {
	PacketsIn, PacketsOut   int64
	BytesIn, BytesOut       int64
	MessagesIn, MessagesOut int64
}

// Traffic returns total bytes moved in either direction — the paper's host
// I/O traffic metric.
func (s Stats) Traffic() int64 { return s.BytesIn + s.BytesOut }

type flowKey struct {
	src  san.NodeID
	flow int64
}

type txJob struct {
	msg   *san.Message
	done  *sim.Latch
	local int64
	// at is the Post time, recorded only when telemetry is armed: the
	// origin the NIC hop (and the end-to-end sample) measures from.
	at sim.Time
}

// NIC is one host channel adapter.
type NIC struct {
	eng  *sim.Engine
	id   san.NodeID
	name string
	in   *san.Link
	out  *san.Link
	mem  *memsys.RDRAM

	txq      *sim.Queue[txJob]
	comps    *sim.Queue[*Completion]
	partials map[flowKey]*Completion

	// Optional end-to-end reliability (nil unless EnableReliability ran):
	// tx tracks outgoing packets for retransmission, rel orders and acks
	// incoming ones, rtxq feeds the dedicated retransmit/control process.
	tx   *san.TxTracker
	rel  *san.RxTracker
	rtxq *sim.Queue[*san.Packet]

	// invalidate, when set, is called for every DMA write so the host's
	// caches drop stale copies of the buffer (DMA coherence).
	invalidate func(base, n int64)

	// Telemetry hooks (nil = off): stamp mints an in-band record for each
	// outgoing packet, complete consumes one at final delivery. maxTxQueue
	// is the transmit-queue high-water mark, tracked only while armed.
	stamp      san.Stamper
	complete   san.Completer
	maxTxQueue int

	// txs and rtxs are the transmit engines' step states.
	txs  txState
	rtxs rtxState

	flows   int64
	stats   Stats
	started bool
}

// The engines are step processes (sim.SpawnStep): each wake runs an engine
// inline until its next wait, making exactly the schedule calls of a
// blocking loop over the same work, in the same order. A transmit engine
// sends as san.Link.Send does, split at Send's two waits.
const (
	sendNext   = iota // waiting for work
	sendCredit        // waiting for a link credit
	sendWire          // waiting for the packet's tail to leave
)

// txState is the transmit engine's position: the job in progress and the
// index of its packet being sent.
type txState struct {
	wait int
	job  txJob
	pkts []*san.Packet
	next int
}

// rtxState is the retransmit engine's position.
type rtxState struct {
	wait int
	pkt  *san.Packet
}

// SetInvalidator installs the DMA-coherence callback.
func (n *NIC) SetInvalidator(fn func(base, n int64)) { n.invalidate = fn }

// SetTelemetry arms per-packet stamping on this adapter: stamp mints the
// record for outgoing packets, complete consumes it when an incoming
// stamped packet finishes its DMA. Install before traffic flows.
func (n *NIC) SetTelemetry(stamp san.Stamper, complete san.Completer) {
	n.stamp = stamp
	n.complete = complete
}

// MaxTxQueue reports the transmit-queue depth high-water mark (zero unless
// telemetry was armed).
func (n *NIC) MaxTxQueue() int { return n.maxTxQueue }

// New builds an adapter for node id attached via the given links; mem is the
// host memory channel DMA traffic is charged against.
func New(eng *sim.Engine, id san.NodeID, name string, in, out *san.Link, mem *memsys.RDRAM) *NIC {
	return &NIC{
		eng:      eng,
		id:       id,
		name:     name,
		in:       in,
		out:      out,
		mem:      mem,
		txq:      sim.NewQueue[txJob](),
		comps:    sim.NewQueue[*Completion](),
		partials: make(map[flowKey]*Completion),
	}
}

// ID returns the adapter's node id.
func (n *NIC) ID() san.NodeID { return n.id }

// Stats returns a copy of the traffic counters.
func (n *NIC) Stats() Stats { return n.stats }

// NextFlow allocates a node-unique flow id.
func (n *NIC) NextFlow() int64 {
	n.flows++
	return n.flows<<16 | int64(n.id)&0xFFFF
}

// EnableReliability arms end-to-end retransmission on this adapter: outgoing
// packets are tracked until acknowledged, incoming ones are reordered,
// deduplicated, and acknowledged. Must run before Start. Returns the tx
// tracker so callers can wire its resolve hook.
func (n *NIC) EnableReliability(cfg san.RetxConfig) *san.TxTracker {
	if n.started {
		panic("nic: EnableReliability after Start")
	}
	if n.tx != nil {
		return n.tx
	}
	n.rtxq = sim.NewQueue[*san.Packet]()
	enqueue := func(pkt *san.Packet) { n.rtxq.Put(pkt) }
	n.tx = san.NewTxTracker(n.eng, cfg, enqueue)
	n.rel = san.NewRxTracker(n.id, enqueue)
	return n.tx
}

// ReliabilityEnabled reports whether EnableReliability ran.
func (n *NIC) ReliabilityEnabled() bool { return n.tx != nil }

// SetRelFilter restricts both reliability trackers to peers that speak the
// protocol (see san.TxTracker.SetTrackable); packets to and from other nodes
// bypass tracking entirely. No-op when reliability is disabled.
func (n *NIC) SetRelFilter(fn func(san.NodeID) bool) {
	if n.tx != nil {
		n.tx.SetTrackable(fn)
		n.rel.SetTrackable(fn)
	}
}

// RelStats returns the reliability counters (zero when disabled).
func (n *NIC) RelStats() (san.TxStats, san.RxStats) {
	if n.tx == nil {
		return san.TxStats{}, san.RxStats{}
	}
	return n.tx.Stats(), n.rel.Stats()
}

// Start spawns the receive and transmit engines.
func (n *NIC) Start() {
	if n.started {
		panic("nic: double Start")
	}
	n.started = true
	n.eng.SpawnStep(n.name+".rx", n.rxStep)
	n.eng.SpawnStep(n.name+".tx", n.txStep)
	if n.tx != nil {
		n.eng.SpawnStep(n.name+".rtx", n.rtxStep)
	}
}

// Post queues msg for transmission and returns a latch that opens once the
// final packet is on the wire. local is the host-memory source address the
// DMA reads are charged against.
func (n *NIC) Post(msg *san.Message, local int64) *sim.Latch {
	if msg.Hdr.Flow == 0 {
		msg.Hdr.Flow = n.NextFlow()
	}
	if msg.Hdr.Src == 0 {
		msg.Hdr.Src = n.id
	}
	done := sim.NewLatch()
	job := txJob{msg: msg, done: done, local: local}
	if n.stamp != nil {
		job.at = n.eng.Now()
		if d := n.txq.Len() + 1; d > n.maxTxQueue {
			n.maxTxQueue = d
		}
	}
	n.txq.Put(job)
	return done
}

// Recv blocks until a message completion is available.
func (n *NIC) Recv(p *sim.Proc) *Completion { return n.comps.Get(p) }

// TryRecv polls for a completion.
func (n *NIC) TryRecv() (*Completion, bool) { return n.comps.TryGet() }

// Pending reports queued-but-unread completions.
func (n *NIC) Pending() int { return n.comps.Len() }

// rxStep is the receive engine: it never waits except for the next packet.
func (n *NIC) rxStep(p *sim.Proc) {
	for {
		pkt, ok := n.in.RecvOrWait(p)
		if !ok {
			return
		}
		n.receive(p, pkt)
		n.in.ReturnCredit()
	}
}

// receive handles one arrived packet; the caller returns its credit.
func (n *NIC) receive(p *sim.Proc, pkt *san.Packet) {
	if n.rel != nil {
		switch {
		case pkt.Hdr.Type == san.Ack:
			switch info := pkt.Payload.(type) {
			case san.AckInfo:
				n.tx.OnAck(pkt.Hdr.Src, info)
			case san.NakInfo:
				n.tx.OnNak(pkt.Hdr.Src, info)
			}
		default:
			for _, q := range n.rel.Observe(pkt) {
				n.accept(p, q)
			}
		}
		return
	}
	// Without the reliability layer a corrupt packet is simply lost at the
	// adapter's CRC check.
	if !pkt.Corrupt {
		n.accept(p, pkt)
	}
}

// accept runs the normal receive path for one validated, in-order packet.
func (n *NIC) accept(p *sim.Proc, pkt *san.Packet) {
	// DMA the payload into host memory; the credit returns once the
	// adapter has drained the packet off the link buffer.
	if pkt.Size > 0 {
		n.mem.Reserve(pkt.Hdr.Addr, pkt.Size)
		if n.invalidate != nil {
			n.invalidate(pkt.Hdr.Addr, pkt.Size)
		}
	}
	tail := n.in.TailTime(p.Now(), pkt.Size)
	if st := pkt.Stamp; st != nil && n.complete != nil {
		n.complete(st, tail, pkt.Hdr.Type)
	}
	n.stats.PacketsIn++
	n.stats.BytesIn += pkt.Size
	key := flowKey{src: pkt.Hdr.Src, flow: pkt.Hdr.Flow}
	c := n.partials[key]
	if c == nil {
		c = &Completion{FirstAt: p.Now()}
		n.partials[key] = c
	}
	c.Size += pkt.Size
	if pkt.Payload != nil {
		c.Payloads = append(c.Payloads, pkt.Payload)
	}
	if pkt.Hdr.Last {
		c.Hdr = pkt.Hdr
		c.DoneAt = tail
		delete(n.partials, key)
		n.stats.MessagesIn++
		if n.eng.Tracing() {
			n.eng.Emit("packet", "recv", n.name,
				fmt.Sprintf("%s msg src=%d flow=%d size=%d", pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Flow, c.Size))
		}
		n.comps.Put(c)
	}
}

// rtxStep drains retransmissions and ACK/NAK control packets onto the link;
// a separate engine so timer callbacks never block and retransmissions
// interleave with fresh traffic rather than preempting it.
func (n *NIC) rtxStep(p *sim.Proc) {
	r := &n.rtxs
	for {
		switch r.wait {
		case sendNext:
			pkt, ok := n.rtxq.GetOrWait(p)
			if !ok {
				return
			}
			n.out.TraceSend(pkt)
			r.pkt = pkt
			r.wait = sendCredit
		case sendCredit:
			if !n.out.CreditOrWait(p) {
				return
			}
			p.WakeAt(n.out.Transmit(r.pkt))
			r.wait = sendWire
			return
		case sendWire:
			// Retransmissions and acks are real wire traffic; keeping them
			// in the counters keeps the host-I/O-traffic metric honest
			// under loss.
			n.stats.PacketsOut++
			n.stats.BytesOut += r.pkt.Size
			r.pkt = nil
			r.wait = sendNext
		}
	}
}

// txStep segments each posted message and sends its packets in order,
// opening the message's latch once the last is on the wire.
func (n *NIC) txStep(p *sim.Proc) {
	t := &n.txs
	for {
		switch t.wait {
		case sendNext:
			job, ok := n.txq.GetOrWait(p)
			if !ok {
				return
			}
			t.job = job
			t.pkts = job.msg.Packets(job.msg.Split)
			t.next = 0
			n.startPacket(p)
		case sendCredit:
			if !n.out.CreditOrWait(p) {
				return
			}
			p.WakeAt(n.out.Transmit(t.pkts[t.next]))
			t.wait = sendWire
			return
		case sendWire:
			pkt := t.pkts[t.next]
			if n.tx != nil {
				n.tx.Record(pkt)
			}
			n.stats.PacketsOut++
			n.stats.BytesOut += pkt.Size
			t.next++
			n.startPacket(p)
		}
	}
}

// startPacket readies the job's next packet — DMA read, telemetry stamp,
// send trace — and waits for its credit; past the last packet it completes
// the job and waits for the next.
func (n *NIC) startPacket(p *sim.Proc) {
	t := &n.txs
	if t.next == len(t.pkts) {
		n.stats.MessagesOut++
		t.job.done.Open()
		t.job, t.pkts = txJob{}, nil
		t.wait = sendNext
		return
	}
	pkt := t.pkts[t.next]
	if pkt.Size > 0 {
		off := int64(pkt.Hdr.Seq) * san.MTU
		n.mem.Reserve(t.job.local+off, pkt.Size)
	}
	if n.stamp != nil {
		st := n.stamp(t.job.at)
		st.Add(san.HopNIC, n.name, t.job.at, p.Now())
		pkt.Stamp = st
	}
	n.out.TraceSend(pkt)
	t.wait = sendCredit
}

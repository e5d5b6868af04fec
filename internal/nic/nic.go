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

// NIC is one host channel adapter. The embedded san.Adapter holds its links,
// its receive engine and its retransmission.
type NIC struct {
	san.Adapter
	eng *sim.Engine
	mem *memsys.RDRAM

	txq      *sim.Queue[txJob]
	comps    *sim.Queue[*Completion]
	partials map[flowKey]*Completion

	// invalidate, when set, is called for every DMA write so the host's
	// caches drop stale copies of the buffer (DMA coherence).
	invalidate func(base, n int64)

	// Telemetry hooks (nil = off): stamp mints an in-band record for each
	// outgoing packet, complete consumes one at final delivery. maxTxQueue
	// is the transmit-queue high-water mark, tracked only while armed.
	stamp      san.Stamper
	complete   san.Completer
	maxTxQueue int

	// txs is the transmit engine's step state.
	txs txState

	flows int64
	stats Stats
}

// txState is the transmit engine's position: the job in progress, its
// packet being sent (nil while the engine waits for a job), that packet's
// index and the message's packet count, and the packet's send.
type txState struct {
	job     txJob
	pkt     *san.Packet
	next, n int
	send    san.Sending
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
	n := &NIC{
		eng:      eng,
		mem:      mem,
		txq:      sim.NewQueue[txJob](),
		comps:    sim.NewQueue[*Completion](),
		partials: make(map[flowKey]*Completion),
	}
	n.Adapter = san.NewAdapter(eng, id, name, in, out, n)
	return n
}

// Stats returns a copy of the traffic counters. Retransmissions and acks
// are real wire traffic; counting them keeps the host-I/O-traffic metric
// honest under loss.
func (n *NIC) Stats() Stats {
	s := n.stats
	pkts, bytes := n.RetxTraffic()
	s.PacketsOut += pkts
	s.BytesOut += bytes
	return s
}

// NextFlow allocates a node-unique flow id.
func (n *NIC) NextFlow() int64 {
	n.flows++
	return n.flows<<16 | int64(n.ID())&0xFFFF
}

// Start spawns the receive, transmit and retransmit engines.
func (n *NIC) Start() { n.Adapter.Start(".rx", ".tx", n.txStep) }

// Post queues msg for transmission and returns a latch that opens once the
// final packet is on the wire. local is the host-memory source address the
// DMA reads are charged against.
func (n *NIC) Post(msg *san.Message, local int64) *sim.Latch {
	if msg.Hdr.Flow == 0 {
		msg.Hdr.Flow = n.NextFlow()
	}
	if msg.Hdr.Src == 0 {
		msg.Hdr.Src = n.ID()
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

// Accept DMAs one packet from the adapter's receive engine into host memory
// and adds it to its message's completion.
func (n *NIC) Accept(p *sim.Proc, pkt *san.Packet) {
	// DMA the payload into host memory; the credit returns once the
	// adapter has drained the packet off the link buffer.
	if pkt.Size > 0 {
		n.mem.Reserve(pkt.Hdr.Addr, pkt.Size)
		if n.invalidate != nil {
			n.invalidate(pkt.Hdr.Addr, pkt.Size)
		}
	}
	tail := n.In().TailTime(p.Now(), pkt.Size)
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
			n.eng.Emit("packet", "recv", n.Name(),
				fmt.Sprintf("%s msg src=%d flow=%d size=%d", pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Flow, c.Size))
		}
		n.comps.Put(c)
	}
}

// txStep segments each posted message, one packet at a time, and sends its
// packets in order, opening the message's latch once the last is on the
// wire. It is a step process (sim.SpawnStep), making exactly the schedule
// calls of a blocking loop over the same work, in the same order.
func (n *NIC) txStep(p *sim.Proc) {
	t := &n.txs
	for {
		if t.pkt == nil {
			job, ok := n.txq.GetOrWait(p)
			if !ok {
				return
			}
			t.job, t.n = job, job.msg.NumPackets()
			n.readyPacket(p)
		}
		pkt := t.pkt
		if !n.Out().SendOrWait(p, pkt, &t.send) {
			return
		}
		n.stats.PacketsOut++
		n.stats.BytesOut += pkt.Size
		n.Sent(pkt)
		if t.next++; t.next < t.n {
			n.readyPacket(p)
			continue
		}
		n.stats.MessagesOut++
		t.job.done.Open()
		*t = txState{}
	}
}

// readyPacket mints the job's next packet and readies it for the wire: its
// DMA read and its telemetry stamp.
func (n *NIC) readyPacket(p *sim.Proc) {
	t := &n.txs
	pkt := n.Pool().Get()
	t.job.msg.Segment(pkt, t.next, nil)
	t.pkt = pkt
	if pkt.Size > 0 {
		off := int64(pkt.Hdr.Seq) * san.MTU
		n.mem.Reserve(t.job.local+off, pkt.Size)
	}
	if n.stamp != nil {
		st := n.stamp(t.job.at)
		st.Add(san.HopNIC, n.Name(), t.job.at, p.Now())
		pkt.Stamp = st
	}
}

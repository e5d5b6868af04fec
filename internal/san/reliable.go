package san

import (
	"sort"

	"activesan/internal/sim"
)

// This file is the optional end-to-end reliability layer: a sender-side
// TxTracker (per-flow retransmission with timeout + exponential backoff) and
// a receiver-side RxTracker (in-order delivery, duplicate suppression, and a
// credit-restoring ACK/NAK path — control packets ride the normal links, so
// they consume and return credits like any other traffic). Nothing here runs
// unless a NIC or store explicitly enables it, keeping the zero-fault
// configuration byte-identical to the lossless paper model.

// ackBytes is the payload size of an ACK/NAK control packet (64-bit flow id
// crammed next to the type tag; the header rides on top as usual).
const ackBytes int64 = 8

// AckInfo acknowledges complete delivery of one (flow, type) message.
type AckInfo struct {
	Flow int64
	Of   Type // the acknowledged message's packet type
}

// NakInfo reports the gaps a receiver observed after the final packet of a
// message arrived; the sender retransmits just the listed sequences.
type NakInfo struct {
	Flow    int64
	Of      Type
	Missing []int
}

// RetxConfig tunes the sender-side retransmission state machine.
type RetxConfig struct {
	// Timeout is the initial retransmission timeout, measured from the last
	// packet handed to the link for a flow.
	Timeout sim.Time
	// Backoff multiplies the timeout after each expiry, up to MaxBackoff.
	Backoff float64
	// MaxBackoff caps the exponential growth.
	MaxBackoff sim.Time
	// MaxRetries abandons a flow after this many consecutive timeouts.
	MaxRetries int
}

// DefaultRetxConfig returns a config tuned to the paper's fabric: the RTT of
// a switch hop is microseconds, so a 50 µs RTO recovers quickly without
// spurious retransmission, and twelve doublings capped at 2 ms ride out a
// multi-event outage.
func DefaultRetxConfig() RetxConfig {
	return RetxConfig{
		Timeout:    50 * sim.Microsecond,
		Backoff:    2,
		MaxBackoff: 2 * sim.Millisecond,
		MaxRetries: 12,
	}
}

// TxStats counts sender-side reliability activity.
type TxStats struct {
	Tracked     int64 // packets recorded for possible retransmission
	Retransmits int64 // packets re-sent (timeout + NAK)
	TimeoutRetx int64 // timeout expiries that retransmitted
	NakRetx     int64 // NAK-driven retransmissions
	AcksSeen    int64
	Abandoned   int64 // flows dropped after MaxRetries
}

// txKey identifies one tracked message. The packet type is part of the key
// because the host's write path reuses a single flow id for the IORequest
// and its Data message.
type txKey struct {
	dst  NodeID
	flow int64
	of   Type
}

// txFlow is the retransmission state of one in-flight message.
type txFlow struct {
	pkts    map[int]*Packet // unacked packets by seq
	gen     int             // timer generation; stale timer events no-op
	rto     sim.Time
	retries int
}

// TxTracker watches packets a sender puts on the wire and re-sends them
// until the receiver acknowledges the complete message. Retransmissions go
// through the send callback (non-blocking: senders enqueue to their
// retransmit process) so timer events never block the engine.
type TxTracker struct {
	eng       *sim.Engine
	cfg       RetxConfig
	send      func(*Packet)
	resolve   func(dst NodeID, flow int64, of Type)
	trackable func(NodeID) bool
	flows     map[txKey]*txFlow
	stats     TxStats
}

// NewTxTracker builds a tracker. send must not block (enqueue, don't Send).
func NewTxTracker(eng *sim.Engine, cfg RetxConfig, send func(*Packet)) *TxTracker {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRetxConfig().Timeout
	}
	if cfg.Backoff <= 1 {
		cfg.Backoff = DefaultRetxConfig().Backoff
	}
	if cfg.MaxBackoff < cfg.Timeout {
		cfg.MaxBackoff = cfg.Timeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultRetxConfig().MaxRetries
	}
	return &TxTracker{eng: eng, cfg: cfg, send: send, flows: map[txKey]*txFlow{}}
}

// SetResolve installs a callback fired when a flow is fully acknowledged;
// the fault injector uses it to mark spurious retransmission losses as
// tolerated rather than pending.
func (t *TxTracker) SetResolve(fn func(dst NodeID, flow int64, of Type)) { t.resolve = fn }

// SetTrackable restricts tracking to destinations that speak the
// reliability protocol. Packets to other nodes — notably active messages
// addressed to a switch, which has no receive-side tracker and would never
// acknowledge — pass through untracked, so they are never retransmitted
// (a duplicate active message would invoke its handler twice).
func (t *TxTracker) SetTrackable(fn func(NodeID) bool) { t.trackable = fn }

// Stats returns a copy of the counters.
func (t *TxTracker) Stats() TxStats { return t.stats }

// Record notes that pkt was handed to the link and (re)arms the flow's
// retransmission timer. Ack packets are fire-and-forget: a lost ACK is
// recovered by the sender's timeout and the receiver's duplicate re-ACK.
func (t *TxTracker) Record(pkt *Packet) {
	if pkt.Hdr.Type == Ack {
		return
	}
	if t.trackable != nil && !t.trackable(pkt.Hdr.Dst) {
		return
	}
	k := txKey{pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Type}
	f := t.flows[k]
	if f == nil {
		f = &txFlow{pkts: map[int]*Packet{}, rto: t.cfg.Timeout}
		t.flows[k] = f
	}
	if _, seen := f.pkts[pkt.Hdr.Seq]; !seen {
		t.stats.Tracked++
	}
	f.pkts[pkt.Hdr.Seq] = pkt
	t.arm(k, f)
}

// arm bumps the flow's timer generation and schedules the next expiry;
// earlier scheduled expiries see a stale generation and do nothing (the
// engine has no timer cancellation on this path, and dead events are cheap).
func (t *TxTracker) arm(k txKey, f *txFlow) {
	f.gen++
	gen := f.gen
	t.eng.Schedule(t.eng.Now()+f.rto, func() { t.expire(k, gen) })
}

// expire is the RTO event: retransmit everything unacked, back off, re-arm.
func (t *TxTracker) expire(k txKey, gen int) {
	f := t.flows[k]
	if f == nil || f.gen != gen || len(f.pkts) == 0 {
		return
	}
	f.retries++
	if f.retries > t.cfg.MaxRetries {
		t.stats.Abandoned++
		delete(t.flows, k)
		return
	}
	t.stats.TimeoutRetx++
	if next := sim.Time(float64(f.rto) * t.cfg.Backoff); next <= t.cfg.MaxBackoff {
		f.rto = next
	} else {
		f.rto = t.cfg.MaxBackoff
	}
	for _, seq := range sortedSeqs(f.pkts) {
		t.stats.Retransmits++
		t.send(f.pkts[seq])
	}
	t.arm(k, f)
}

// OnAck retires a fully delivered flow. src is the acknowledging node —
// the destination the tracked packets were sent to.
func (t *TxTracker) OnAck(src NodeID, info AckInfo) {
	t.stats.AcksSeen++
	k := txKey{src, info.Flow, info.Of}
	f := t.flows[k]
	if f == nil {
		return
	}
	f.gen++ // disarm pending timers
	delete(t.flows, k)
	if t.resolve != nil {
		t.resolve(k.dst, k.flow, k.of)
	}
}

// OnNak immediately retransmits the sequences the receiver reported missing
// and resets the retry budget — a NAK is proof the path works again.
func (t *TxTracker) OnNak(src NodeID, info NakInfo) {
	k := txKey{src, info.Flow, info.Of}
	f := t.flows[k]
	if f == nil {
		return
	}
	sent := false
	for _, seq := range info.Missing {
		if pkt, ok := f.pkts[seq]; ok {
			t.stats.Retransmits++
			t.send(pkt)
			sent = true
		}
	}
	if sent {
		t.stats.NakRetx++
		f.retries = 0
		t.arm(k, f)
	}
}

// sortedSeqs orders a retransmission burst deterministically; map iteration
// order would leak into packet timing and break reproducibility.
func sortedSeqs(m map[int]*Packet) []int {
	seqs := make([]int, 0, len(m))
	for s := range m {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	return seqs
}

// RxStats counts receiver-side reliability activity.
type RxStats struct {
	Delivered      int64 // packets released in order to the consumer
	Duplicates     int64 // retransmitted packets already seen
	AcksSent       int64
	ReAcks         int64 // duplicate-final re-acknowledgements
	NaksSent       int64
	CorruptDropped int64
}

// rxKey mirrors txKey from the receiver's point of view.
type rxKey struct {
	src  NodeID
	flow int64
	of   Type
}

// rxFlow buffers out-of-order arrivals of one message.
type rxFlow struct {
	next    int
	buf     map[int]*Packet
	lastSeq int // -1 until the Last-marked packet arrives
}

// RxTracker reorders arrivals, suppresses duplicates, and drives the ACK/NAK
// path. The ctl callback carries control packets back toward the sender and
// must not block (enqueue, don't Send).
type RxTracker struct {
	me        NodeID
	ctl       func(*Packet)
	trackable func(NodeID) bool
	flows     map[rxKey]*rxFlow
	done      map[rxKey]bool // completed flows, for duplicate re-ACK
	stats     RxStats
}

// NewRxTracker builds a tracker for a node's receive side.
func NewRxTracker(me NodeID, ctl func(*Packet)) *RxTracker {
	return &RxTracker{me: me, ctl: ctl, flows: map[rxKey]*rxFlow{}, done: map[rxKey]bool{}}
}

// Stats returns a copy of the counters.
func (r *RxTracker) Stats() RxStats { return r.stats }

// SetTrackable mirrors TxTracker.SetTrackable on the receive side: packets
// from senders outside the protocol — a switch's handler plane, whose
// protocols reuse one flow id across messages, making dedup ambiguous — are
// delivered as-is, with no reordering, dedup, or ACKs. They keep exactly the
// lossless-fabric semantics they were written against.
func (r *RxTracker) SetTrackable(fn func(NodeID) bool) { r.trackable = fn }

// Observe filters one arrival and returns the packets now deliverable in
// order (possibly none, possibly several when a retransmission fills a gap).
func (r *RxTracker) Observe(pkt *Packet) []*Packet {
	if pkt.Corrupt {
		r.stats.CorruptDropped++
		return nil
	}
	if pkt.Hdr.Type == Ack {
		return nil
	}
	if r.trackable != nil && !r.trackable(pkt.Hdr.Src) {
		r.stats.Delivered++
		return []*Packet{pkt}
	}
	k := rxKey{pkt.Hdr.Src, pkt.Hdr.Flow, pkt.Hdr.Type}
	if r.done[k] {
		// The whole message was already delivered; this is a spurious
		// retransmission, which means our ACK was lost — repeat it when the
		// sender re-sends the tail.
		r.stats.Duplicates++
		if pkt.Hdr.Last {
			r.stats.ReAcks++
			r.ack(pkt)
		}
		return nil
	}
	f := r.flows[k]
	if f == nil {
		f = &rxFlow{buf: map[int]*Packet{}, lastSeq: -1}
		r.flows[k] = f
	}
	seq := pkt.Hdr.Seq
	if _, buffered := f.buf[seq]; buffered || seq < f.next {
		r.stats.Duplicates++
	} else {
		f.buf[seq] = pkt
		if pkt.Hdr.Last {
			f.lastSeq = seq
		}
	}
	var out []*Packet
	for {
		q, ok := f.buf[f.next]
		if !ok {
			break
		}
		delete(f.buf, f.next)
		f.next++
		out = append(out, q)
	}
	r.stats.Delivered += int64(len(out))
	switch {
	case f.lastSeq >= 0 && f.next > f.lastSeq:
		delete(r.flows, k)
		r.done[k] = true
		r.stats.AcksSent++
		r.ack(pkt)
	case pkt.Hdr.Last || (f.lastSeq >= 0 && seq == f.lastSeq):
		// The tail is known but earlier packets are missing: ask for just
		// the gaps instead of waiting out the sender's timeout.
		if missing := f.missing(); len(missing) > 0 {
			r.stats.NaksSent++
			r.nak(pkt, missing)
		}
	}
	return out
}

// missing lists the gaps between next and the known final sequence.
func (f *rxFlow) missing() []int {
	var gaps []int
	for s := f.next; s <= f.lastSeq; s++ {
		if _, ok := f.buf[s]; !ok {
			gaps = append(gaps, s)
		}
	}
	return gaps
}

// ack emits a positive acknowledgement for orig's message.
func (r *RxTracker) ack(orig *Packet) {
	r.ctl(&Packet{
		Hdr:     Header{Src: r.me, Dst: orig.Hdr.Src, Type: Ack, Flow: orig.Hdr.Flow, Seq: 0, Last: true},
		Size:    ackBytes,
		Payload: AckInfo{Flow: orig.Hdr.Flow, Of: orig.Hdr.Type},
	})
}

// nak emits a negative acknowledgement listing the missing sequences.
func (r *RxTracker) nak(orig *Packet, missing []int) {
	r.ctl(&Packet{
		Hdr:     Header{Src: r.me, Dst: orig.Hdr.Src, Type: Ack, Flow: orig.Hdr.Flow, Seq: 1, Last: true},
		Size:    ackBytes,
		Payload: NakInfo{Flow: orig.Hdr.Flow, Of: orig.Hdr.Type, Missing: missing},
	})
}

package san

import (
	"fmt"
	"slices"
	"testing"

	"activesan/internal/sim"
)

// sendLog pushes a fixed packet train through a link with the given credits
// to a slow receiver, from a goroutine sender using Send or a step sender
// using SendOrWait, and returns what both sides saw in order: each arrival,
// each finished send with the events fired by then and, when traced, every
// trace line. It also returns the run's event count.
func sendLog(credits int, step, traced bool) (log []string, events int64) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = credits
	l := NewLink(eng, "l", cfg)
	if traced {
		eng.SetTraceSink(func(ev sim.TraceEvent) {
			log = append(log, fmt.Sprintf("%v trace %s/%s %s", ev.At, ev.Cat, ev.Name, ev))
		})
	}
	// A 10 B packet's head arrives as its tail leaves (10 ns of
	// serialization, 10 ns of wire), so its delivery and the sender's wake
	// share an instant and only their scheduling order separates them.
	var pkts []*Packet
	for i, size := range []int64{512, 10, 10, 100, 1, 10, 512, 0, 10, 300} {
		pkts = append(pkts, &Packet{Hdr: Header{Src: 1, Dst: 2, Flow: 3, Seq: i}, Size: size})
	}
	sent := func(p *sim.Proc, i int) {
		log = append(log, fmt.Sprintf("%v sent %d after %d events", p.Now(), i, eng.Events()))
	}
	if step {
		var s Sending
		i := 0
		eng.SpawnStep("tx", func(p *sim.Proc) {
			for i < len(pkts) && l.SendOrWait(p, pkts[i], &s) {
				sent(p, i)
				i++
			}
		})
	} else {
		eng.Spawn("tx", func(p *sim.Proc) {
			for i, pkt := range pkts {
				l.Send(p, pkt)
				sent(p, i)
			}
		})
	}
	eng.Spawn("rx", func(p *sim.Proc) {
		for range pkts {
			pkt := l.Recv(p)
			log = append(log, fmt.Sprintf("%v got %d", p.Now(), pkt.Hdr.Seq))
			eng.Emit("test", "recv", "rx", fmt.Sprint(pkt.Hdr.Seq))
			p.Sleep(700 * sim.Nanosecond)
			l.ReturnCredit()
		}
	})
	eng.Run()
	eng.Shutdown()
	return log, eng.Events()
}

// A step sender on SendOrWait makes exactly the schedule calls of a
// goroutine sender on Send: the same arrivals at the same times, each send
// finishing after the same events, and the same trace.
func TestSendOrWaitMatchesSend(t *testing.T) {
	for _, credits := range []int{1, 2} {
		for _, traced := range []bool{false, true} {
			want, wantEv := sendLog(credits, false, traced)
			got, gotEv := sendLog(credits, true, traced)
			if !slices.Equal(got, want) {
				t.Fatalf("%d credits, traced %v: step sender logged\n%q\ngoroutine sender logged\n%q", credits, traced, got, want)
			}
			if gotEv != wantEv {
				t.Fatalf("%d credits, traced %v: step sender fired %d events, goroutine sender %d", credits, traced, gotEv, wantEv)
			}
		}
	}
}

// recorder is a device that keeps every packet its adapter accepts.
type recorder struct{ got []*Packet }

func (r *recorder) Accept(_ *sim.Proc, pkt *Packet) { r.got = append(r.got, pkt) }

// adapterRig builds node 1's adapter with a recorder behind it, receiving
// on a link with the given credits.
func adapterRig(eng *sim.Engine, credits int) (*Adapter, *recorder) {
	cfg := DefaultLinkConfig()
	cfg.Credits = credits
	dev := &recorder{}
	a := NewAdapter(eng, 1, "a", NewLink(eng, "a.in", cfg), NewLink(eng, "a.out", DefaultLinkConfig()), dev)
	return &a, dev
}

// idle is a device engine with nothing to do.
func idle(*sim.Proc) {}

// Without reliability a corrupt packet stops at the CRC check, and its
// credit comes back: on a one-credit link the clean packet behind it could
// not be sent otherwise.
func TestAdapterDropsCorruptPackets(t *testing.T) {
	eng := sim.NewEngine()
	a, dev := adapterRig(eng, 1)
	a.Start(".rx", ".dev", idle)
	bad := &Packet{Hdr: Header{Src: 2, Dst: 1, Flow: 7}, Size: 64, Corrupt: true}
	good := &Packet{Hdr: Header{Src: 2, Dst: 1, Flow: 8}, Size: 64}
	eng.Spawn("peer", func(p *sim.Proc) {
		a.In().Send(p, bad)
		a.In().Send(p, good)
	})
	eng.Run()
	defer eng.Shutdown()
	if len(dev.got) != 1 || dev.got[0] != good {
		t.Fatalf("device accepted %v, want only the clean packet", dev.got)
	}
	if n := a.In().credits.Available(); n != 1 {
		t.Fatalf("%d of 1 credits back after the run", n)
	}
}

// With reliability armed, acks and naks go to the tx tracker and never to
// the device; the naked packet and the ack of the peer's message leave
// through the retransmit engine.
func TestAdapterDispatchesAcksAndRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	a, dev := adapterRig(eng, DefaultLinkConfig().Credits)
	tx := a.EnableReliability(DefaultRetxConfig())
	a.Start(".rx", ".dev", idle)

	// Node 1 sent a two-packet message to node 2.
	msg := &Message{Hdr: Header{Src: 1, Dst: 2, Type: Data, Flow: 5}, Size: MTU + 100}
	out := msg.Packets(nil)
	for _, pkt := range out {
		a.Sent(pkt)
	}
	data := &Packet{Hdr: Header{Src: 2, Dst: 1, Type: Data, Flow: 9, Last: true}, Size: 64}
	eng.Spawn("peer", func(p *sim.Proc) {
		a.In().Send(p, &Packet{Hdr: Header{Src: 2, Dst: 1, Type: Ack, Flow: 5, Seq: 1, Last: true},
			Size: ackBytes, Payload: NakInfo{Flow: 5, Of: Data, Missing: []int{1}}})
		a.In().Send(p, &Packet{Hdr: Header{Src: 2, Dst: 1, Type: Ack, Flow: 5, Last: true},
			Size: ackBytes, Payload: AckInfo{Flow: 5, Of: Data}})
		a.In().Send(p, data)
	})
	var wire []*Packet
	eng.Spawn("wire", func(p *sim.Proc) {
		for {
			wire = append(wire, a.Out().Recv(p))
			a.Out().ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()

	if len(dev.got) != 1 || dev.got[0] != data {
		t.Fatalf("device accepted %v, want only the peer's data packet", dev.got)
	}
	if st := tx.Stats(); st.AcksSeen != 1 || st.NakRetx != 1 || st.Retransmits != 1 || tx.Outstanding() != 0 {
		t.Fatalf("tx tracker stats %+v with %d outstanding, want one ack, one nak retransmission, none outstanding",
			st, tx.Outstanding())
	}
	// The retransmit engine sends a copy of the tracked packet.
	if len(wire) != 2 || wire[0] == out[1] || wire[0].Hdr != out[1].Hdr || wire[0].Size != out[1].Size {
		t.Fatalf("wire carried %v, want a copy of the retransmitted packet %v then an ack", wire, out[1])
	}
	if info, ok := wire[1].Payload.(AckInfo); !ok || wire[1].Hdr.Dst != 2 || info != (AckInfo{Flow: 9, Of: Data}) {
		t.Fatalf("second packet on the wire is %+v, want the ack of flow 9 to node 2", wire[1])
	}
	if pkts, bytes := a.RetxTraffic(); pkts != 2 || bytes != out[1].Size+ackBytes {
		t.Fatalf("retransmit engine sent %d packets, %d bytes; want 2, %d", pkts, bytes, out[1].Size+ackBytes)
	}
}

// With reliability armed, a corrupt ACK or NAK fails the CRC check like any
// other packet: the RxTracker counts it as a corrupt drop, the flow it
// names stays outstanding, and nothing is retransmitted for it.
func TestAdapterDropsCorruptAcks(t *testing.T) {
	eng := sim.NewEngine()
	a, dev := adapterRig(eng, DefaultLinkConfig().Credits)
	tx := a.EnableReliability(DefaultRetxConfig())
	a.Start(".rx", ".dev", idle)
	a.Sent(&Packet{Hdr: Header{Src: 1, Dst: 2, Type: Data, Flow: 5, Last: true}, Size: 64})
	eng.Spawn("peer", func(p *sim.Proc) {
		a.In().Send(p, &Packet{Hdr: Header{Src: 2, Dst: 1, Type: Ack, Flow: 5, Seq: 1, Last: true},
			Size: ackBytes, Payload: NakInfo{Flow: 5, Of: Data, Missing: []int{0}}, Corrupt: true})
		a.In().Send(p, &Packet{Hdr: Header{Src: 2, Dst: 1, Type: Ack, Flow: 5, Last: true},
			Size: ackBytes, Payload: AckInfo{Flow: 5, Of: Data}, Corrupt: true})
	})
	// Stop well before the retransmission timeout.
	eng.RunUntil(DefaultRetxConfig().Timeout / 2)
	defer eng.Shutdown()
	if st := tx.Stats(); st.AcksSeen != 0 || st.Retransmits != 0 || tx.Outstanding() != 1 {
		t.Fatalf("tx tracker stats %+v with %d outstanding, want no ack seen, no retransmission, the flow outstanding",
			st, tx.Outstanding())
	}
	if _, rx := a.RelStats(); rx.CorruptDropped != 2 {
		t.Fatalf("rx tracker counted %d corrupt drops, want 2", rx.CorruptDropped)
	}
	if len(dev.got) != 0 {
		t.Fatalf("device accepted %v, want nothing", dev.got)
	}
	if pkts, _ := a.RetxTraffic(); pkts != 0 {
		t.Fatalf("retransmit engine sent %d packets, want none", pkts)
	}
}

// Outstanding reports how many messages await acknowledgement.
func (t *TxTracker) Outstanding() int { return len(t.flows) }

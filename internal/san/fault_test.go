package san

import (
	"strings"
	"testing"

	"activesan/internal/sim"
)

// dropAll loses every packet; the link must still restore credits so senders
// drain instead of wedging.
type dropAll struct{ seen int }

func (d *dropAll) OnTransmit(_ *Link, _ *Packet) (FaultVerdict, sim.Time) {
	d.seen++
	return FaultDrop, 0
}

func TestSwitchNoRouteAccounting(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sw.Start()
	const n = 5
	sent := 0
	eng.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: 99, Seq: i}, Size: 64})
			sent++
		}
	})
	eng.Run()
	// Every unroutable packet must have its input credit returned, or the
	// sender stalls after Credits packets.
	if sent != n {
		t.Fatalf("sent %d of %d packets: no-route drops leaked credits", sent, n)
	}
	st := sw.Stats()
	if st.Dropped != n || st.NoRouteDrops != n {
		t.Fatalf("Dropped=%d NoRouteDrops=%d, want %d each", st.Dropped, st.NoRouteDrops, n)
	}
	if st.Routed != 0 {
		t.Fatalf("Routed=%d for unroutable traffic, want 0", st.Routed)
	}
	eng.Shutdown()
}

func TestStrictRoutesPanicsOnUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sw.SetStrictRoutes(true)
	sw.Start()
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: 99}, Size: 64})
	})
	defer eng.Shutdown()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unroutable packet under -strict-routes did not panic")
		}
		msg, ok := r.(error)
		if !ok || !strings.Contains(msg.Error(), "no route") {
			t.Fatalf("panic %v does not name the missing route", r)
		}
	}()
	eng.Run()
}

func TestLinkCreditExhaustionStalledReceiver(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = 2
	l := NewLink(eng, "l", cfg)
	const n = 5
	times := make([]sim.Time, 0, n)
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(p, &Packet{Size: 512})
			times = append(times, p.Now())
		}
	})
	// The receiver sits on every packet for 1 ms before returning its
	// credit: sends beyond the credit window must absorb that stall.
	const hold = sim.Millisecond
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Recv(p)
			p.Sleep(hold)
			l.ReturnCredit()
		}
	})
	eng.Run()
	if len(times) != n {
		t.Fatalf("only %d of %d sends completed", len(times), n)
	}
	// Sends 1 and 2 ride the two credits; send 3 needs the first credit
	// back, which the receiver holds for 1 ms.
	if times[1] >= hold {
		t.Fatalf("send 2 at %v stalled despite a free credit", times[1])
	}
	if times[2] < hold {
		t.Fatalf("send 3 at %v beat the receiver's credit hold of %v", times[2], hold)
	}
	eng.Shutdown()
}

func TestLinkDropRestoresCredits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = 2
	l := NewLink(eng, "l", cfg)
	inj := &dropAll{}
	l.SetInjector(inj)
	const n = 6 // 3x the credit window: only restored credits let this finish
	sent := 0
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(p, &Packet{Size: 512})
			sent++
		}
	})
	eng.Run()
	if sent != n {
		t.Fatalf("sent %d of %d: dropped packets did not restore credits", sent, n)
	}
	if inj.seen != n {
		t.Fatalf("injector saw %d packets, want %d", inj.seen, n)
	}
	if got := l.Stats().Dropped; got != n {
		t.Fatalf("Dropped=%d, want %d", got, n)
	}
	if _, ok := l.TryRecv(); ok {
		t.Fatal("receiver got a packet from an all-drop link")
	}
	eng.Shutdown()
}

func TestDownLinkDrainsTraffic(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = 2
	l := NewLink(eng, "l", cfg)
	l.SetDown(true)
	sent := 0
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			l.Send(p, &Packet{Size: 256})
			sent++
		}
	})
	eng.Run()
	if sent != 5 {
		t.Fatalf("sent %d of 5 into a down link: credits wedged", sent)
	}
	if got := l.Stats().Dropped; got != 5 {
		t.Fatalf("Dropped=%d, want 5", got)
	}
	l.SetDown(false)
	if !l.Up() {
		t.Fatal("link still down after SetDown(false)")
	}
	eng.Shutdown()
}

func TestReassembleRoundTrip(t *testing.T) {
	data := make([]byte, MTU*2+300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m := &Message{Hdr: Header{Flow: 42}, Size: int64(len(data))}
	pkts := m.Packets(SliceSplit(data))
	out, err := Reassemble(pkts)
	if err != nil {
		t.Fatalf("clean set failed to reassemble: %v", err)
	}
	if string(out) != string(data) {
		t.Fatal("reassembled payload differs from original")
	}
	// Order independence: the reliability layer may buffer out of order.
	rev := []*Packet{pkts[2], pkts[0], pkts[1]}
	out, err = Reassemble(rev)
	if err != nil || string(out) != string(data) {
		t.Fatalf("out-of-order set: err=%v", err)
	}
}

func TestReassembleRejectsDamage(t *testing.T) {
	mk := func() []*Packet {
		data := make([]byte, MTU*2+300)
		m := &Message{Hdr: Header{Flow: 7}, Size: int64(len(data))}
		return m.Packets(SliceSplit(data))
	}

	missing := mk()
	if _, err := Reassemble([]*Packet{missing[0], missing[2]}); err == nil {
		t.Fatal("missing middle packet accepted")
	}

	corrupt := mk()
	cp := *corrupt[1]
	cp.Corrupt = true
	if _, err := Reassemble([]*Packet{corrupt[0], &cp, corrupt[2]}); err == nil {
		t.Fatal("corrupt middle packet accepted")
	}

	dup := mk()
	if _, err := Reassemble([]*Packet{dup[0], dup[1], dup[1], dup[2]}); err == nil {
		t.Fatal("duplicate seq accepted")
	}

	mixed := mk()
	other := *mixed[1]
	other.Hdr.Flow = 8
	if _, err := Reassemble([]*Packet{mixed[0], &other, mixed[2]}); err == nil {
		t.Fatal("mixed flows accepted")
	}

	truncated := mk()
	noLast := []*Packet{truncated[0], truncated[1]} // Last packet absent
	if _, err := Reassemble(noLast); err == nil {
		t.Fatal("set without a final packet accepted")
	}

	if _, err := Reassemble(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

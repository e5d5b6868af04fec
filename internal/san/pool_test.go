package san

import (
	"strings"
	"testing"

	"activesan/internal/sim"
)

// hopDevice counts the packets its adapter accepts.
type hopDevice struct{ got int }

func (d *hopDevice) Accept(*sim.Proc, *Packet) { d.got++ }

// hopSender is a device engine that sends one pooled MTU packet to dst per
// job: a NIC's transmit engine stripped down to the packet hop.
type hopSender struct {
	a    *Adapter
	dst  NodeID
	jobs *sim.Queue[struct{}]
	pkt  *Packet
	send Sending
}

func (s *hopSender) step(p *sim.Proc) {
	for {
		if s.pkt == nil {
			if _, ok := s.jobs.GetOrWait(p); !ok {
				return
			}
			s.pkt = s.a.Pool().Get()
			s.pkt.Hdr = Header{Src: s.a.ID(), Dst: s.dst, Type: Data, Last: true}
			s.pkt.Size = MTU
		}
		if !s.a.Out().SendOrWait(p, s.pkt, &s.send) {
			return
		}
		s.a.Sent(s.pkt)
		s.pkt = nil
	}
}

// hopRig runs host 1 → switch → host 2 on one engine or, cut, host 1 →
// switch → switch → host 2 with the link pair between the switches cut
// across two partitions that run their windows concurrently.
type hopRig struct {
	snd      *hopSender
	dev      *hopDevice
	run      func()
	shutdown func()
}

func newHopRig(cut bool) *hopRig {
	r := &hopRig{dev: &hopDevice{}}
	cfg := DefaultSwitchConfig(2)
	host := func(eng *sim.Engine, sw *Switch, port int, id NodeID, dev Device) *Adapter {
		up, down := NewLink(eng, "up", cfg.Link), NewLink(eng, "down", cfg.Link)
		sw.AttachPort(port, up, down)
		a := NewAdapter(eng, id, "h", down, up, dev)
		return &a
	}
	var sw0, sw1 *Switch
	if cut {
		g := sim.NewGroup(2)
		g.SetDispatch(sim.DispatchConcurrent)
		r.run = func() { g.Run() }
		r.shutdown = g.Shutdown
		sw0 = NewSwitch(g.Engine(0), 10, "sw0", cfg)
		sw1 = NewSwitch(g.Engine(1), 11, "sw1", cfg)
		ab, ba := NewLink(g.Engine(0), "ab", cfg.Link), NewLink(g.Engine(1), "ba", cfg.Link)
		ab.SetCross(g.Connect(0, 1, cfg.Link.Propagation, RoutingLatency))
		ba.SetCross(g.Connect(1, 0, cfg.Link.Propagation, RoutingLatency))
		sw0.AttachPort(1, ba, ab)
		sw1.AttachPort(0, ab, ba)
		sw1.SetRoute(1, 0)
		sw1.SetRoute(2, 1)
	} else {
		eng := sim.NewEngine()
		r.run = func() { eng.Run() }
		r.shutdown = eng.Shutdown
		sw0 = NewSwitch(eng, 10, "sw0", cfg)
		sw1 = sw0
	}
	sw0.SetRoute(1, 0)
	sw0.SetRoute(2, 1)
	a1 := host(sw0.Engine(), sw0, 0, 1, &hopDevice{})
	a2 := host(sw1.Engine(), sw1, 1, 2, r.dev)
	r.snd = &hopSender{a: a1, dst: 2, jobs: sim.NewQueue[struct{}]()}
	a1.Start(".rx", ".tx", r.snd.step)
	a2.Start(".rx", ".tx", idle)
	sw0.Start()
	if cut {
		sw1.Start()
	}
	return r
}

// hop sends one packet from host 1 to host 2 and runs the fabric until it
// is delivered and every process waits again.
func (r *hopRig) hop() {
	r.snd.jobs.Put(struct{}{})
	r.run()
}

func TestPacketHopZeroAllocs(t *testing.T) {
	for _, cut := range []bool{false, true} {
		r := newHopRig(cut)
		for i := 0; i < 64; i++ { // fill the pool, queues and event slab
			r.hop()
		}
		allocs := testing.AllocsPerRun(200, r.hop)
		got := r.dev.got
		r.shutdown()
		if got != 64+201 {
			t.Fatalf("cut %v: host 2 accepted %d packets, want %d", cut, got, 64+201)
		}
		if allocs != 0 {
			t.Fatalf("cut %v: a steady-state packet hop allocates %.1f times, want 0", cut, allocs)
		}
	}
}

func TestPacketDoubleReleasePanics(t *testing.T) {
	var pp PacketPool
	for _, order := range [][]Owner{{Sink, Sink}, {Sender, Sender}, {Sender, Sink, Sink}} {
		pkt := pp.Get()
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "double release") {
					t.Fatalf("releases %v: recovered %v, want a double-release panic", order, r)
				}
			}()
			for _, o := range order {
				pkt.Release(o)
			}
		}()
	}
	// A packet built directly has no holds, so releasing it does nothing.
	pkt := &Packet{}
	pkt.Release(Sink)
	pkt.Release(Sink)
}

// Once both holds are released the pool hands the same packet out again,
// zeroed.
func TestPacketPoolRecycles(t *testing.T) {
	var pp PacketPool
	pkt := pp.Get()
	pkt.Hdr.Flow, pkt.Size, pkt.Payload = 7, MTU, "data"
	pkt.Release(Sink)
	if again := pp.Get(); again == pkt {
		t.Fatal("a packet still held by its sender was handed out again")
	}
	pkt.Release(Sender)
	again := pp.Get()
	if again != pkt {
		t.Fatal("a released packet was not recycled")
	}
	if again.Hdr.Flow != 0 || again.Size != 0 || again.Payload != nil || again.owners != Sender|Sink {
		t.Fatalf("recycled packet %+v is not zeroed with both holds", *again)
	}
}

// A packet's delivery event is the packet itself, which names the link it
// is crossing, so sending it again before its head has arrived panics
// rather than misdeliver the first arrival.
func TestPacketCrossesOneLinkAtATime(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Propagation = sim.Microsecond // the head is still in flight when the tail leaves
	a, b := NewLink(eng, "a", cfg), NewLink(eng, "b", cfg)
	pkt := &Packet{Hdr: Header{Src: 1, Dst: 2, Flow: 3}, Size: 64}
	eng.Spawn("tx", func(p *sim.Proc) {
		a.Send(p, pkt)
		b.Send(p, pkt)
	})
	defer eng.Shutdown()
	defer func() {
		r := recover()
		if err, _ := r.(error); err == nil || !strings.Contains(err.Error(), "sent on b while still crossing a") {
			t.Fatalf("recovered %v, want a still-crossing panic", r)
		}
	}()
	eng.Run()
}

// Engine returns the engine the switch runs on — its partition's engine in
// a partitioned simulation.
func (s *Switch) Engine() *sim.Engine { return s.eng }

package san

import (
	"fmt"
	"testing"
	"testing/quick"

	"activesan/internal/sim"
)

func TestHeaderValidate(t *testing.T) {
	good := Header{HandlerID: 63, Addr: 0xFFFF_FFFF}
	if err := good.Validate(); err != nil {
		t.Fatalf("good header rejected: %v", err)
	}
	if err := (Header{HandlerID: 64}).Validate(); err == nil {
		t.Fatal("7-bit handler ID accepted")
	}
	if err := (Header{Addr: 1 << 32}).Validate(); err == nil {
		t.Fatal("33-bit address accepted")
	}
}

func TestMessageSegmentation(t *testing.T) {
	m := &Message{Hdr: Header{Addr: 0x1000}, Size: MTU*2 + 100}
	pkts := m.Packets(nil)
	if len(pkts) != 3 {
		t.Fatalf("got %d packets, want 3", len(pkts))
	}
	var total int64
	for i, pkt := range pkts {
		total += pkt.Size
		if pkt.Hdr.Seq != i {
			t.Errorf("packet %d has seq %d", i, pkt.Hdr.Seq)
		}
		if want := int64(0x1000) + int64(i)*MTU; pkt.Hdr.Addr != want {
			t.Errorf("packet %d addr %#x, want %#x", i, pkt.Hdr.Addr, want)
		}
	}
	if total != m.Size {
		t.Fatalf("segmented %d bytes, want %d", total, m.Size)
	}
	if !pkts[2].Hdr.Last || pkts[0].Hdr.Last || pkts[1].Hdr.Last {
		t.Fatal("Last flag misplaced")
	}
	if pkts[2].Size != 100 {
		t.Fatalf("tail packet size %d, want 100", pkts[2].Size)
	}
}

func TestMessageSegmentationProperty(t *testing.T) {
	f := func(size uint32) bool {
		m := &Message{Size: int64(size % (1 << 20))}
		pkts := m.Packets(nil)
		var total int64
		for i, pkt := range pkts {
			if pkt.Size > MTU {
				return false
			}
			if pkt.Hdr.Last != (i == len(pkts)-1) {
				return false
			}
			total += pkt.Size
		}
		if m.Size == 0 {
			return len(pkts) == 1 && total == 0
		}
		return total == m.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSplitCoversData(t *testing.T) {
	data := make([]byte, 1300)
	for i := range data {
		data[i] = byte(i)
	}
	m := &Message{Size: int64(len(data))}
	pkts := m.Packets(SliceSplit(data))
	var rebuilt []byte
	for _, pkt := range pkts {
		rebuilt = append(rebuilt, pkt.Payload.([]byte)...)
	}
	if len(rebuilt) != len(data) {
		t.Fatalf("rebuilt %d bytes, want %d", len(rebuilt), len(data))
	}
	for i := range data {
		if rebuilt[i] != data[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", DefaultLinkConfig())
	pkt := &Packet{Size: 512}
	var sentAt, gotAt sim.Time
	eng.Spawn("tx", func(p *sim.Proc) {
		l.Send(p, pkt)
		sentAt = p.Now()
	})
	eng.Spawn("rx", func(p *sim.Proc) {
		l.Recv(p)
		gotAt = p.Now()
		l.ReturnCredit()
	})
	eng.Run()
	wire := sim.TransferTime(512+HeaderBytes, 1e9)
	if sentAt != wire {
		t.Fatalf("sender freed at %v, want %v", sentAt, wire)
	}
	// Head arrives after header serialization + propagation (cut-through).
	wantHead := sim.TransferTime(HeaderBytes, 1e9) + 10*sim.Nanosecond
	if gotAt != wantHead {
		t.Fatalf("head arrived at %v, want %v", gotAt, wantHead)
	}
}

func TestLinkCreditsBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = 2
	l := NewLink(eng, "l", cfg)
	sent := 0
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			l.Send(p, &Packet{Size: 512})
			sent++
		}
	})
	// No receiver returns credits: only 2 packets can be sent.
	eng.Run()
	if sent != 2 {
		t.Fatalf("sent %d packets with 2 credits and no receiver, want 2", sent)
	}
	// A receiver draining and returning credits unblocks the rest.
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			l.Recv(p)
			p.Sleep(sim.Microsecond)
			l.ReturnCredit()
		}
	})
	eng.Run()
	if sent != 4 {
		t.Fatalf("sent %d packets after credits returned, want 4", sent)
	}
	if l.Stats().Packets != 4 || l.Stats().Bytes != 4*512 {
		t.Fatalf("link stats = %+v", l.Stats())
	}
	eng.Shutdown()
}

func TestLinkBandwidthSerialization(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.Credits = 100
	l := NewLink(eng, "l", cfg)
	const n = 50
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.SendAsync(p, &Packet{Size: 512})
		}
	})
	var last sim.Time
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Recv(p)
			l.ReturnCredit()
			last = p.Now()
		}
	})
	eng.Run()
	// 50 packets of (512+16) bytes at 1 GB/s cannot beat the line rate;
	// with cut-through, the final head arrives one payload time before the
	// line drains.
	minTime := sim.TransferTime(n*(512+HeaderBytes), 1e9) - sim.TransferTime(512, 1e9)
	if last < minTime {
		t.Fatalf("delivered %d packets by %v, faster than line rate %v", n, last, minTime)
	}
}

// star builds a 1-switch fabric with n endpoints and returns the switch and
// per-endpoint ports.
func star(eng *sim.Engine, n int) (*Switch, []Port) {
	sw := NewSwitch(eng, NodeID(100), "sw", DefaultSwitchConfig(n))
	eps := make([]Port, n)
	for i := 0; i < n; i++ {
		toSw := NewLink(eng, "up", DefaultLinkConfig())
		fromSw := NewLink(eng, "down", DefaultLinkConfig())
		sw.AttachPort(i, toSw, fromSw)
		// The endpoint's view: In = from switch, Out = toward switch.
		eps[i] = Port{In: fromSw, Out: toSw}
		sw.SetRoute(NodeID(i), i)
	}
	return sw, eps
}

func TestSwitchRoutesBetweenPorts(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 4)
	sw.Start()
	var got *Packet
	var at sim.Time
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: 2}, Size: 512})
	})
	eng.Spawn("dst", func(p *sim.Proc) {
		got = eps[2].In.Recv(p)
		at = p.Now()
		eps[2].In.ReturnCredit()
	})
	eng.Run()
	if got == nil || got.Hdr.Dst != 2 {
		t.Fatal("packet not delivered to port 2")
	}
	// End-to-end head latency must include the 100 ns routing step.
	if at < 100*sim.Nanosecond {
		t.Fatalf("delivery at %v too fast for routing latency", at)
	}
	if sw.Stats().Routed != 1 {
		t.Fatalf("routed = %d, want 1", sw.Stats().Routed)
	}
	eng.Shutdown()
}

func TestSwitchDropsUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sw.Start()
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: 99}, Size: 64})
	})
	eng.Run()
	if sw.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", sw.Stats().Dropped)
	}
	eng.Shutdown()
}

type captureSink struct {
	pkts []*Packet
}

func (c *captureSink) NewDelivery() LocalDelivery { return c }

func (c *captureSink) DeliverOrWait(_ *sim.Proc, pkt *Packet) bool {
	c.pkts = append(c.pkts, pkt)
	return true
}

func TestSwitchLocalSink(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sink := &captureSink{}
	sw.SetLocalSink(sink)
	sw.Start()
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: sw.ID(), Type: ActiveMsg, HandlerID: 5}, Size: 128})
	})
	eng.Run()
	if len(sink.pkts) != 1 || sink.pkts[0].Hdr.HandlerID != 5 {
		t.Fatalf("local sink got %d packets", len(sink.pkts))
	}
	if sw.Stats().Local != 1 {
		t.Fatalf("local count = %d", sw.Stats().Local)
	}
	eng.Shutdown()
}

func TestSwitchNoSinkDropsLocal(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sw.Start()
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &Packet{Hdr: Header{Src: 0, Dst: sw.ID()}, Size: 64})
	})
	eng.Run()
	if sw.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", sw.Stats().Dropped)
	}
	eng.Shutdown()
}

func TestSwitchInject(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := star(eng, 2)
	sw.Start()
	var got *Packet
	eng.Spawn("injector", func(p *sim.Proc) {
		if err := sw.Inject(p, &Packet{Hdr: Header{Src: sw.ID(), Dst: 1}, Size: 256}); err != nil {
			t.Errorf("inject failed: %v", err)
		}
	})
	eng.Spawn("dst", func(p *sim.Proc) {
		got = eps[1].In.Recv(p)
		eps[1].In.ReturnCredit()
	})
	eng.Run()
	if got == nil || got.Hdr.Src != sw.ID() {
		t.Fatal("injected packet not delivered")
	}
	eng.Shutdown()
}

func TestSwitchInjectUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := star(eng, 2)
	sw.Start()
	eng.Spawn("injector", func(p *sim.Proc) {
		if err := sw.Inject(p, &Packet{Hdr: Header{Dst: 55}}); err == nil {
			t.Error("inject to unroutable destination succeeded")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestTwoSwitchPath(t *testing.T) {
	// ep0 - swA - swB - ep1: packets cross an inter-switch trunk.
	eng := sim.NewEngine()
	swA := NewSwitch(eng, 100, "swA", DefaultSwitchConfig(2))
	swB := NewSwitch(eng, 101, "swB", DefaultSwitchConfig(2))
	mk := func(n string) *Link { return NewLink(eng, n, DefaultLinkConfig()) }
	ep0up, ep0down := mk("0up"), mk("0down")
	ep1up, ep1down := mk("1up"), mk("1down")
	abUp, abDown := mk("ab"), mk("ba")
	swA.AttachPort(0, ep0up, ep0down)
	swA.AttachPort(1, abDown, abUp) // A's trunk: in from B, out to B
	swB.AttachPort(0, abUp, abDown)
	swB.AttachPort(1, ep1up, ep1down)
	swA.SetRoute(0, 0)
	swA.SetRoute(1, 1)
	swB.SetRoute(0, 0)
	swB.SetRoute(1, 1)
	swA.Start()
	swB.Start()
	var gotAt sim.Time
	eng.Spawn("src", func(p *sim.Proc) {
		ep0up.Send(p, &Packet{Hdr: Header{Src: 0, Dst: 1}, Size: 512})
	})
	eng.Spawn("dst", func(p *sim.Proc) {
		ep1down.Recv(p)
		gotAt = p.Now()
		ep1down.ReturnCredit()
	})
	eng.Run()
	if gotAt == 0 {
		t.Fatal("packet never crossed two switches")
	}
	// Two routing steps must be included.
	if gotAt < 200*sim.Nanosecond {
		t.Fatalf("two-hop delivery at %v too fast", gotAt)
	}
	eng.Shutdown()
}

func TestAttachAfterStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := star(eng, 2)
	sw.Start()
	defer eng.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("AttachPort after Start did not panic")
		}
	}()
	sw.AttachPort(0, nil, nil)
}

func TestPacketConservationProperty(t *testing.T) {
	// Property: across random star fabrics and traffic matrices, every
	// packet sent is either delivered to its destination or counted as
	// dropped — none vanish in queues once the fabric quiesces.
	f := func(seed uint8) bool {
		n := 2 + int(seed%5)
		eng := sim.NewEngine()
		sw, eps := star(eng, n)
		sw.Start()
		state := uint64(seed) + 1
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		total := 0
		received := make([]int, n)
		for src := 0; src < n; src++ {
			src := src
			count := 1 + int(next()%8)
			total += count
			eng.Spawn("tx", func(p *sim.Proc) {
				for i := 0; i < count; i++ {
					dst := NodeID(next() % uint64(n+1)) // may be unroutable (== n)
					eps[src].Out.Send(p, &Packet{Hdr: Header{Src: NodeID(src), Dst: dst}, Size: 256})
				}
			})
		}
		for d := 0; d < n; d++ {
			d := d
			eng.Spawn("rx", func(p *sim.Proc) {
				for {
					eps[d].In.Recv(p)
					received[d]++
					eps[d].In.ReturnCredit()
				}
			})
		}
		eng.Run()
		eng.Shutdown()
		got := 0
		for _, r := range received {
			got += r
		}
		// Packets to NodeID(n) are unroutable (and self-addressed packets
		// to the switch id are dropped without a sink).
		return got+int(sw.Stats().Dropped) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputQueueOccupancyStats(t *testing.T) {
	// Three senders converging on one output must queue in the central
	// pool; the high-water marks record it.
	eng := sim.NewEngine()
	sw, eps := star(eng, 4)
	sw.Start()
	for src := 0; src < 3; src++ {
		src := src
		eng.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 16; i++ {
				eps[src].Out.SendAsync(p, &Packet{Hdr: Header{Src: NodeID(src), Dst: 3}, Size: 512})
			}
		})
	}
	got := 0
	eng.Spawn("rx", func(p *sim.Proc) {
		for got < 48 {
			eps[3].In.Recv(p)
			got++
			eps[3].In.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	st := sw.Stats()
	if st.MaxQueueDepth < 2 {
		t.Fatalf("max queue depth = %d, want congestion", st.MaxQueueDepth)
	}
	if st.MinPoolFree >= PoolPackets {
		t.Fatalf("pool low-water = %d, pool never used?", st.MinPoolFree)
	}
	if got != 48 {
		t.Fatalf("delivered %d packets", got)
	}
}

// Config returns the link parameters.
func (l *Link) Config() LinkConfig { return l.cfg }

// Validate checks the encodable ranges of the active sub-header.
func (h Header) Validate() error {
	if h.HandlerID < 0 || h.HandlerID > MaxHandlerID {
		return fmt.Errorf("san: handler ID %d outside 6-bit range", h.HandlerID)
	}
	if h.Addr < 0 || h.Addr > 0xFFFF_FFFF {
		return fmt.Errorf("san: mapped address %#x outside 32-bit range", h.Addr)
	}
	return nil
}

package aswitch

import (
	"strings"
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

func TestDataBufferValidAt(t *testing.T) {
	b := &DataBuffer{size: 512, fillStart: 1000 * sim.Nanosecond, lineBytes: ValidLineBytes}
	// At the 1 GB/s link rate, the first 32-byte line is valid after 32 ns.
	if got := b.ValidAt(0); got != 1032*sim.Nanosecond {
		t.Fatalf("ValidAt(0) = %v, want 1032ns", got)
	}
	if got := b.ValidAt(31); got != 1032*sim.Nanosecond {
		t.Fatalf("ValidAt(31) = %v, want same line", got)
	}
	if got := b.ValidAt(32); got != 1064*sim.Nanosecond {
		t.Fatalf("ValidAt(32) = %v, want next line", got)
	}
	if got := b.TailValidAt(); got != 1512*sim.Nanosecond {
		t.Fatalf("TailValidAt = %v, want 1512ns", got)
	}
}

// allocInput takes an input buffer that must be free at once.
func allocInput(t *testing.T, d *DBA, p *sim.Proc) *DataBuffer {
	t.Helper()
	b, ok := d.AllocInputOrWait(p)
	if !ok {
		t.Fatal("no input buffer free")
	}
	return b
}

func TestDBAReserveSplit(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDBA(16, 2)
	var inputs []*DataBuffer
	var waited bool
	var waiter *DataBuffer
	eng.Spawn("p", func(p *sim.Proc) {
		// 14 input allocations succeed at once.
		for i := 0; i < 14; i++ {
			inputs = append(inputs, allocInput(t, d, p))
		}
		// Output reserve still available.
		ob := d.AllocOutput(p)
		d.Free(ob)
		// Free one input, and the pool must accept another.
		d.Free(inputs[0])
		inputs[0] = allocInput(t, d, p)
		// The 15th waits until an input buffer frees.
		p.Sleep(sim.Nanosecond)
		d.Free(inputs[13])
		inputs = inputs[:13]
	})
	eng.SpawnStep("late", func(p *sim.Proc) {
		var ok bool
		if waiter, ok = d.AllocInputOrWait(p); !ok {
			waited = true
		}
	})
	eng.Run()
	if !waited || waiter == nil {
		t.Fatalf("15th input allocation: waited %v, got a buffer %v; want it to wait, then get one", waited, waiter != nil)
	}
	if d.InUse() != 14 {
		t.Fatalf("in use = %d, want 14", d.InUse())
	}
	if d.Peak() != 15 {
		t.Fatalf("peak = %d, want 15 (14 input + 1 output)", d.Peak())
	}
}

func TestDBADoubleFreePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDBA(4, 1)
	eng.Spawn("p", func(p *sim.Proc) {
		b := allocInput(t, d, p)
		d.Free(b)
		defer func() {
			if recover() == nil {
				t.Error("double free did not panic")
			}
		}()
		d.Free(b)
	})
	eng.Run()
}

func TestATBDirectMapped(t *testing.T) {
	a := NewATB(16)
	b0 := &DataBuffer{addr: 0, size: 512, live: true}
	b16 := &DataBuffer{addr: 16 * 512, size: 512, live: true} // same slot as b0
	a.Install(b0)
	if a.CanInstall(b16) {
		t.Fatal("conflicting slot reported free")
	}
	if got, ok := a.Lookup(100); !ok || got.b != b0 {
		t.Fatal("lookup inside b0 failed")
	}
	if _, ok := a.Lookup(16 * 512); ok {
		t.Fatal("lookup found unmapped address")
	}
	freed := a.ReleaseBelow(512)
	if len(freed) != 1 || freed[0] != b0 {
		t.Fatalf("ReleaseBelow freed %d buffers", len(freed))
	}
	if !a.CanInstall(b16) {
		t.Fatal("slot still occupied after release")
	}
	a.Install(b16)
	if a.Live() != 1 {
		t.Fatalf("live = %d, want 1", a.Live())
	}
}

func TestATBReleaseBelowPartial(t *testing.T) {
	a := NewATB(16)
	for i := int64(0); i < 4; i++ {
		a.Install(&DataBuffer{addr: i * 512, size: 512, live: true})
	}
	// end = 1024 frees exactly the first two.
	freed := a.ReleaseBelow(1024)
	if len(freed) != 2 {
		t.Fatalf("freed %d, want 2", len(freed))
	}
	if a.Live() != 2 {
		t.Fatalf("live = %d, want 2", a.Live())
	}
}

// rig builds an active switch with n endpoint ports; eps[i] is the
// endpoint-side port for node i.
func rig(eng *sim.Engine, n int, cfg Config) (*ActiveSwitch, []san.Port) {
	sw := New(eng, san.NodeID(100), "asw", cfg)
	eps := make([]san.Port, n)
	for i := 0; i < n; i++ {
		up := san.NewLink(eng, "up", cfg.Base.Link)
		down := san.NewLink(eng, "down", cfg.Base.Link)
		sw.AttachPort(i, up, down)
		eps[i] = san.Port{In: down, Out: up}
		sw.SetRoute(san.NodeID(i), i)
	}
	return sw, eps
}

func TestHandlerInvocationAndReply(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4)
	sw, eps := rig(eng, 4, cfg)
	var gotArgs any
	sw.Register(3, "echo", func(x *Ctx) {
		gotArgs = x.Args()
		x.ReleaseArgs()
		x.Send(SendSpec{Dst: x.Src(), Type: san.Data, Addr: 0x9000, Size: 256, Payload: "reply"})
	})
	sw.Start()
	var reply *san.Packet
	eng.Spawn("host", func(p *sim.Proc) {
		eps[1].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 1, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 3, Addr: 0x2000, CPUID: -1, Flow: 42, Last: true},
			Size: 64, Payload: "args",
		})
		reply = eps[1].In.Recv(p)
		eps[1].In.ReturnCredit()
	})
	eng.Run()
	defer eng.Shutdown()
	if gotArgs != "args" {
		t.Fatalf("handler args = %v", gotArgs)
	}
	if reply == nil || reply.Payload != "reply" || reply.Hdr.Addr != 0x9000 {
		t.Fatalf("reply = %+v", reply)
	}
	if sw.ActiveStats().Invocations != 1 {
		t.Fatalf("invocations = %d", sw.ActiveStats().Invocations)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
}

func TestStreamProcessingBackpressure(t *testing.T) {
	// Stream 64 packets (far more than 16 buffers) through a slow handler;
	// credits and the DBA must throttle the producer without deadlock.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	const pkts = 64
	base := int64(0x10000)
	var processed int
	sw.Register(1, "slurp", func(x *Ctx) {
		x.ReleaseArgs() // free the invocation buffer
		cursor := base
		for i := 0; i < pkts; i++ {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			x.Compute(2000) // slow consumer
			cursor = b.End()
			x.Deallocate(cursor)
			processed++
		}
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 7, Last: true},
			Size: 32,
		})
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: base, Flow: 8}, Size: pkts * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.SendAsync(p, pkt)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if processed != pkts {
		t.Fatalf("processed %d packets, want %d", processed, pkts)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
	if sw.DBA().Peak() > 16 {
		t.Fatalf("peak buffers %d exceeds hardware", sw.DBA().Peak())
	}
}

func TestHandlerStartsBeforeCopyCompletes(t *testing.T) {
	// The separated control/data paths let the CPU start before the data
	// buffer copy finishes: with per-line valid bits, reading byte 0 must
	// not wait for the packet tail.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	var headRead, tailRead sim.Time
	sw.Register(1, "peek", func(x *Ctx) {
		// Free the argument buffer first: its 0x8000 slot aliases the
		// stream's 0x4000 slot in the direct-mapped ATB.
		x.ReleaseArgs()
		b := x.WaitStream(0x4000)
		x.Peek(b, 4)
		headRead = x.Now()
		x.ReadAll(b)
		tailRead = x.Now()
		x.Deallocate(b.End())
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 7, Last: true},
			Size: 32,
		})
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x4000, Flow: 8, Last: true},
			Size: 512,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	if headRead == 0 || tailRead == 0 {
		t.Fatal("handler did not run")
	}
	// Reading the head must happen at least ~400ns before the tail is in.
	if tailRead-headRead < 400*sim.Nanosecond {
		t.Fatalf("head at %v, tail at %v: no overlap of copy and compute", headRead, tailRead)
	}
}

func TestMultiCPUDispatch(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.NumCPUs = 4
	sw, eps := rig(eng, 2, cfg)
	ran := make([]int, 4)
	sw.Register(2, "which", func(x *Ctx) {
		ran[x.CPU().ID()]++
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 2, CPUID: k, Addr: int64(k) * 512, Flow: int64(k + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	for k, n := range ran {
		if n != 1 {
			t.Fatalf("CPU %d ran %d invocations, want 1 (all: %v)", k, n, ran)
		}
	}
}

func TestForwardZeroCopy(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(3)
	sw, eps := rig(eng, 3, cfg)
	sw.Register(1, "redirect", func(x *Ctx) {
		x.ReleaseArgs()
		b := x.WaitStream(0)
		x.Forward(SendSpec{Dst: 2, Type: san.Data, Addr: 0x7000, Flow: 99}, b, 0, true)
		x.Deallocate(b.End())
	})
	sw.Start()
	var got *san.Packet
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 1, Last: true},
			Size: 16,
		})
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0, Flow: 2, Last: true},
			Size: 512, Payload: []byte("payload"),
		})
	})
	eng.Spawn("dst", func(p *sim.Proc) {
		got = eps[2].In.Recv(p)
		eps[2].In.ReturnCredit()
	})
	eng.Run()
	defer eng.Shutdown()
	if got == nil {
		t.Fatal("forwarded packet not delivered")
	}
	if got.Hdr.Addr != 0x7000 || !got.Hdr.Last || string(got.Payload.([]byte)) != "payload" {
		t.Fatalf("forwarded packet = %+v", got)
	}
	if got.Hdr.Src != sw.ID() {
		t.Fatal("forwarded packet should carry the switch as source")
	}
}

func TestHandlerState(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	sw.SetState(4, 0)
	sw.Register(4, "count", func(x *Ctx) {
		x.SetState(x.State().(int) + 1)
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 4, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if sw.HandlerState(4) != 3 {
		t.Fatalf("state = %v, want 3", sw.HandlerState(4))
	}
}

func TestNextArrivalInterleavedStreams(t *testing.T) {
	// Two interleaved streams; the handler consumes whatever arrives so
	// neither can starve the other.
	eng := sim.NewEngine()
	cfg := DefaultConfig(3)
	sw, eps := rig(eng, 3, cfg)
	var seen []int64
	const per = 20
	sw.Register(1, "merge", func(x *Ctx) {
		x.ReleaseArgs()
		for i := 0; i < 2*per; i++ {
			b := x.NextArrival()
			x.ReadAll(b)
			seen = append(seen, b.Addr())
			x.DeallocateBuf(b)
		}
	})
	sw.Start()
	eng.Spawn("kick", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 1 << 20, Flow: 100, Last: true},
			Size: 16,
		})
	})
	for s := 0; s < 2; s++ {
		s := s
		eng.SpawnAt(sim.Microsecond, "stream", func(p *sim.Proc) {
			base := int64(s) * (1 << 16)
			m := &san.Message{Hdr: san.Header{Src: san.NodeID(s), Dst: sw.ID(), Type: san.Data, Addr: base, Flow: int64(s + 1)}, Size: per * 512}
			for _, pkt := range m.Packets(nil) {
				eps[s].Out.SendAsync(p, pkt)
			}
		})
	}
	eng.Run()
	defer eng.Shutdown()
	if len(seen) != 2*per {
		t.Fatalf("consumed %d buffers, want %d", len(seen), 2*per)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(4)
	bad.NumCPUs = 5
	if err := bad.validate(); err == nil {
		t.Fatal("5 CPUs accepted")
	}
	bad = DefaultConfig(4)
	bad.OutReserve = 16
	if err := bad.validate(); err == nil {
		t.Fatal("OutReserve >= NumBuffers accepted")
	}
	bad = DefaultConfig(4)
	bad.ValidLineBytes = 0
	if err := bad.validate(); err == nil {
		t.Fatal("zero ValidLineBytes accepted")
	}
	bad = DefaultConfig(4)
	bad.CPUClock = sim.Clock{}
	if err := bad.validate(); err == nil {
		t.Fatal("zero CPUClock accepted")
	}
}

func TestRegisterConflictsPanic(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, 100, "asw", DefaultConfig(2))
	sw.Register(1, "a", func(*Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	sw.Register(1, "b", func(*Ctx) {})
}

func TestUnregisteredHandlerCounted(t *testing.T) {
	// An active message naming an empty jump-table slot must be counted
	// and dropped without wedging the switch.
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "real", func(x *Ctx) { x.ReleaseArgs() })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 33, Addr: 0, Flow: 1, Last: true},
			Size: 32,
		})
		// A later, registered invocation must still work.
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 512, Flow: 2, Last: true},
			Size: 32,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	st := sw.ActiveStats()
	if st.Unregistered != 1 {
		t.Fatalf("unregistered = %d, want 1", st.Unregistered)
	}
	if sw.CPU(0).Runs() != 1 {
		t.Fatalf("runs = %d, want 1 (the registered handler)", sw.CPU(0).Runs())
	}
}

func TestHandlerPanicSurfacesWithProcName(t *testing.T) {
	// A buggy handler must fail the simulation visibly (engine-context
	// panic), not hang or kill the process silently.
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "buggy", func(x *Ctx) { panic("handler bug") })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 32,
		})
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("handler panic did not surface")
		}
	}()
	eng.Run()
}

func TestPerHandlerStats(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(5, "a", func(x *Ctx) {
		x.ReleaseArgs()
		x.Send(SendSpec{Dst: x.Src(), Type: san.Data, Addr: 0x100, Size: 300, Flow: 9})
	})
	sw.Register(6, "b", func(x *Ctx) { x.ReleaseArgs() })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i, id := range []int{5, 5, 6} {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: id, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			eps[0].In.Recv(p)
			eps[0].In.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	a := sw.HandlerStatsFor(5)
	b := sw.HandlerStatsFor(6)
	if a.Invocations != 2 || a.MessagesSent != 2 || a.BytesSent != 600 {
		t.Fatalf("handler 5 stats = %+v", a)
	}
	if b.Invocations != 1 || b.MessagesSent != 0 {
		t.Fatalf("handler 6 stats = %+v", b)
	}
	if sw.HandlerStatsFor(99).Invocations != 0 {
		t.Fatal("out-of-range id not zero")
	}
}

func TestReadAtOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "oob", func(x *Ctx) {
		b := x.WaitStream(x.BaseAddr())
		x.ReadAt(b, 0, b.Size()+1) // one past the end
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 64,
		})
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("out-of-range ReadAt did not panic")
		}
	}()
	eng.Run()
}

func TestPeekClampsToBuffer(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	ok := false
	sw.Register(1, "peek", func(x *Ctx) {
		b := x.WaitStream(x.BaseAddr())
		x.Peek(b, 10_000) // clamps to the 64-byte buffer
		ok = true
		x.DeallocateBuf(b)
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 64,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	if !ok {
		t.Fatal("peek never completed")
	}
}

func TestDeallocateReturnsCount(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	var freed []int
	sw.Register(1, "count", func(x *Ctx) {
		x.ReleaseArgs()
		// Wait for three packets, then free them all with one call.
		for _, a := range []int64{0x10000, 0x10200, 0x10400} {
			x.WaitStream(a)
		}
		freed = append(freed, x.Deallocate(0x10000+3*512))
		freed = append(freed, x.Deallocate(0x10000+3*512)) // idempotent
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 1, Last: true},
			Size: 16,
		})
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x10000, Flow: 2}, Size: 3 * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(freed) != 2 || freed[0] != 3 || freed[1] != 0 {
		t.Fatalf("freed = %v, want [3 0]", freed)
	}
}

func TestRoundRobinDispatch(t *testing.T) {
	// ActiveMsg with CPUID -1 rotates across the switch CPUs.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.NumCPUs = 2
	sw, eps := rig(eng, 2, cfg)
	var ran []int
	sw.Register(2, "which", func(x *Ctx) {
		ran = append(ran, x.CPU().ID())
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 2, CPUID: -1, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(ran) != 4 {
		t.Fatalf("ran = %v", ran)
	}
	counts := map[int]int{}
	for _, c := range ran {
		counts[c]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("round robin skewed: %v", ran)
	}
}

// The dispatch unit's crash branches. Each scenario pins the counters, the
// CrashNotice's arrival at the invoker and the run's event count, so a
// rewrite of the dispatch unit must keep all three.

// invoke is a one-packet active message from node src to handler id.
func invoke(sw *ActiveSwitch, src, id int, addr, flow int64) *san.Packet {
	return &san.Packet{
		Hdr:  san.Header{Src: san.NodeID(src), Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: id, Addr: addr, Flow: flow, Last: true},
		Size: 32,
	}
}

// recvNotice receives the next packet on l and checks it is a CrashNotice
// for handler id and flow.
func recvNotice(t *testing.T, p *sim.Proc, l *san.Link, id int, flow int64) sim.Time {
	t.Helper()
	pkt := l.Recv(p)
	l.ReturnCredit()
	if n, ok := pkt.Payload.(CrashNotice); !ok || pkt.Hdr.Type != san.Control || n != (CrashNotice{Handler: id, Flow: flow}) {
		t.Errorf("invoker got %s packet with payload %+v, want a CrashNotice{%d %d}", pkt.Hdr.Type, pkt.Payload, id, flow)
	}
	return p.Now()
}

// pinEvents checks the run fired exactly want events: a dispatch unit that
// adds or loses a wait shifts the count.
func pinEvents(t *testing.T, eng *sim.Engine, want int64) {
	t.Helper()
	if got := eng.Events(); got != want {
		t.Fatalf("run fired %d events, want %d", got, want)
	}
}

// stuckHandler waits for stream data that never comes, so a crash aborts
// it and scrubs every buffer it holds.
func stuckHandler(x *Ctx) {
	x.ReleaseArgs()
	x.WaitStream(0x100000)
}

func TestCrashedSwitchRejectsInvocation(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "never", func(*Ctx) { t.Error("a handler ran on a crashed switch") })
	sw.Start()
	sw.Crash()
	var at sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		eps[1].Out.Send(p, invoke(sw, 1, 1, 0x8000, 7))
		at = recvNotice(t, p, eps[1].In, 1, 7)
	})
	eng.Run()
	defer eng.Shutdown()
	pinEvents(t, eng, 19)
	if want := 160 * sim.Nanosecond; at != want {
		t.Fatalf("CrashNotice arrived at %v, want %v", at, want)
	}
	if got, want := sw.CrashStatsCopy(), (CrashStats{Crashes: 1, Rejected: 1}); got != want {
		t.Fatalf("crash stats = %+v, want %+v", got, want)
	}
	if st := sw.ActiveStats(); st.Invocations != 0 || st.PacketsAdmitted != 0 {
		t.Fatalf("a crashed switch admitted work: %+v", st)
	}
}

func TestCrashedSwitchDropsStreamData(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Start()
	sw.Crash()
	eng.Spawn("host", func(p *sim.Proc) {
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x10000, Flow: 3}, Size: 3 * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
	})
	end := eng.Run()
	defer eng.Shutdown()
	pinEvents(t, eng, 27)
	if want := 1584 * sim.Nanosecond; end != want {
		t.Fatalf("run ended at %v, want %v", end, want)
	}
	if got, want := sw.CrashStatsCopy(), (CrashStats{Crashes: 1, DataDropped: 3}); got != want {
		t.Fatalf("crash stats = %+v, want %+v", got, want)
	}
	if n := sw.DBA().InUse(); n != 0 || sw.ActiveStats().PacketsAdmitted != 0 {
		t.Fatalf("dropped data holds %d buffers", n)
	}
}

// A crash that lands while a packet waits for a data buffer: the handler's
// abort frees the buffers, the waiting packet takes one, sees the crash,
// frees it and counts the drop.
func TestCrashWhileWaitingForDataBuffer(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "stuck", stuckHandler)
	sw.Start()
	const crashAt = 50 * sim.Microsecond
	inUse := -1
	eng.Schedule(crashAt, func() {
		inUse = sw.DBA().InUse()
		sw.Crash()
	})
	var at sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, invoke(sw, 0, 1, 0x8000, 7))
		// 15 packets for 14 admission slots: the last waits for a buffer.
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x10000, Flow: 8}, Size: 15 * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
		at = recvNotice(t, p, eps[0].In, 1, 7)
	})
	eng.Run()
	defer eng.Shutdown()
	pinEvents(t, eng, 142)
	if inUse != 14 {
		t.Fatalf("%d buffers held when the crash landed, want all 14 admission slots", inUse)
	}
	if want := 50026 * sim.Nanosecond; at != want {
		t.Fatalf("CrashNotice arrived at %v, want %v", at, want)
	}
	if got, want := sw.CrashStatsCopy(), (CrashStats{Crashes: 1, Aborted: 1, DataDropped: 1}); got != want {
		t.Fatalf("crash stats = %+v, want %+v", got, want)
	}
	if n := sw.DBA().InUse(); n != 0 {
		t.Fatalf("DBA holds %d buffers after the crash, want 0", n)
	}
	if st := sw.ActiveStats(); st.PacketsAdmitted != 15 {
		t.Fatalf("admitted %d packets, want 15 (the arguments and 14 stream packets)", st.PacketsAdmitted)
	}
}

// A crash that lands while a packet waits for an ATB slot: the waiting
// packet wakes on the crash, frees its buffer and counts the drop.
func TestCrashWhileWaitingForATBSlot(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "stuck", stuckHandler)
	sw.Start()
	const crashAt = 50 * sim.Microsecond
	inUse := -1
	eng.Schedule(crashAt, func() {
		inUse = sw.DBA().InUse()
		sw.Crash()
	})
	var at sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, invoke(sw, 0, 1, 0x8000, 7))
		// Two blocks 16 MTUs apart share one direct-mapped ATB slot.
		for _, addr := range []int64{0x10000, 0x10000 + 16*san.MTU} {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: addr, Flow: 8},
				Size: 512,
			})
		}
		at = recvNotice(t, p, eps[0].In, 1, 7)
	})
	eng.Run()
	defer eng.Shutdown()
	pinEvents(t, eng, 38)
	if inUse != 2 {
		t.Fatalf("%d buffers held when the crash landed, want 2", inUse)
	}
	if want := 50026 * sim.Nanosecond; at != want {
		t.Fatalf("CrashNotice arrived at %v, want %v", at, want)
	}
	if got, want := sw.CrashStatsCopy(), (CrashStats{Crashes: 1, Aborted: 1, DataDropped: 1}); got != want {
		t.Fatalf("crash stats = %+v, want %+v", got, want)
	}
	if n := sw.DBA().InUse(); n != 0 {
		t.Fatalf("DBA holds %d buffers after the crash, want 0", n)
	}
	if st := sw.ActiveStats(); st.PacketsAdmitted != 2 {
		t.Fatalf("admitted %d packets, want 2 (the arguments and the first stream packet)", st.PacketsAdmitted)
	}
}

// stepSender sends its packets in order from a step process.
type stepSender struct {
	l    *san.Link
	pkts []*san.Packet
	next int
	send san.Sending
}

func (s *stepSender) step(p *sim.Proc) {
	for s.next < len(s.pkts) && s.l.SendOrWait(p, s.pkts[s.next], &s.send) {
		s.next++
	}
}

// A stream into a handler costs the same goroutine handoffs whatever its
// length: with a step sender the switch CPU is the only goroutine, and the
// input port admits each packet inline on whichever goroutine drives.
func TestStreamHandoffsIndependentOfLength(t *testing.T) {
	handoffs := func(packets int) int64 {
		eng := sim.NewEngine()
		sw, eps := rig(eng, 2, DefaultConfig(2))
		const base = int64(0x10000)
		done := 0
		sw.Register(1, "slurp", func(x *Ctx) {
			x.ReleaseArgs()
			cursor := base
			for ; done < packets; done++ {
				b := x.WaitStream(cursor)
				x.ReadAll(b)
				cursor = b.End()
				x.Deallocate(cursor)
			}
		})
		sw.Start()
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: base, Flow: 8}, Size: int64(packets) * san.MTU}
		snd := &stepSender{l: eps[0].Out, pkts: append([]*san.Packet{invoke(sw, 0, 1, 0x8000, 7)}, m.Packets(nil)...)}
		eng.SpawnStep("sender", snd.step)
		eng.Run()
		defer eng.Shutdown()
		if done != packets || sw.DBA().InUse() != 0 {
			t.Fatalf("handler consumed %d of %d packets, %d buffers held", done, packets, sw.DBA().InUse())
		}
		return eng.Handoffs()
	}
	if short, long := handoffs(16), handoffs(256); short != long {
		t.Fatalf("a 16-packet stream cost %d goroutine handoffs, a 256-packet stream %d", short, long)
	}
}

// streamRig streams pooled MTU packets into a handler that reads and
// deallocates each: one packet per call of feed.
type streamRig struct {
	eng      *sim.Engine
	sw       *ActiveSwitch
	out      *san.Link
	pool     san.PacketPool
	jobs     *sim.Queue[struct{}]
	seq      int
	pkt      *san.Packet
	send     san.Sending
	consumed int
}

const streamBase = int64(0x10000)

func newStreamRig() *streamRig {
	r := &streamRig{eng: sim.NewEngine(), jobs: sim.NewQueue[struct{}]()}
	sw, eps := rig(r.eng, 2, DefaultConfig(2))
	r.sw, r.out = sw, eps[0].Out
	sw.Register(1, "stream", func(x *Ctx) {
		x.ReleaseArgs()
		cursor := streamBase
		for {
			b := x.WaitStream(cursor)
			x.ReadAt(b, 0, b.Size())
			cursor = b.End()
			x.Deallocate(cursor)
			r.consumed++
		}
	})
	sw.Start()
	r.eng.SpawnStep("sender", r.step)
	r.jobs.Put(struct{}{}) // the invocation
	r.eng.Run()
	return r
}

// step sends the invocation, then one stream packet per job.
func (r *streamRig) step(p *sim.Proc) {
	for {
		if r.pkt == nil {
			if _, ok := r.jobs.GetOrWait(p); !ok {
				return
			}
			r.pkt = r.pool.Get()
			if r.seq == 0 {
				r.pkt.Hdr = san.Header{Src: 0, Dst: r.sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 7, Last: true}
				r.pkt.Size = 32
			} else {
				r.pkt.Hdr = san.Header{Src: 0, Dst: r.sw.ID(), Type: san.Data, Addr: streamBase + int64(r.seq-1)*san.MTU, Flow: 8, Seq: r.seq - 1}
				r.pkt.Size = san.MTU
			}
			r.seq++
		}
		if !r.out.SendOrWait(p, r.pkt, &r.send) {
			return
		}
		r.pkt.Release(san.Sender)
		r.pkt = nil
	}
}

func (r *streamRig) feed() {
	r.jobs.Put(struct{}{})
	r.eng.Run()
}

// Each packet of a streamed active message — dispatched into a recycled
// data buffer, waited for, read and deallocated by the handler — allocates
// nothing once the stream is warm.
func TestStreamedPacketZeroAllocs(t *testing.T) {
	r := newStreamRig()
	defer r.eng.Shutdown()
	for i := 0; i < 64; i++ {
		r.feed()
	}
	allocs := testing.AllocsPerRun(200, r.feed)
	if r.consumed != 64+201 {
		t.Fatalf("handler consumed %d packets, want %d", r.consumed, 64+201)
	}
	if allocs != 0 {
		t.Fatalf("a streamed packet allocates %.1f times, want 0", allocs)
	}
	if n := r.sw.DBA().InUse(); n != 0 {
		t.Fatalf("%d data buffers held after the stream", n)
	}
}

// The DBA reuses its buffers, so a reference a handler kept past Deallocate
// is stale: every Ctx call and accessor on it panics instead of reading the
// buffer's next occupant.
func TestStaleBufferReferencePanics(t *testing.T) {
	d := NewDBA(2, 1)
	b := d.take(false)
	ref := b.ref()
	d.Free(b)
	if again := d.take(false); again != b || ref.live() {
		t.Fatal("the DBA did not reuse the freed buffer, or the old reference still reads as live")
	}

	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	uses := []struct {
		name string
		use  func(x *Ctx, b BufRef)
	}{
		{"ReadAt", func(x *Ctx, b BufRef) { x.ReadAt(b, 0, 1) }},
		{"ReadAll", func(x *Ctx, b BufRef) { x.ReadAll(b) }},
		{"Peek", func(x *Ctx, b BufRef) { x.Peek(b, 8) }},
		{"DeallocateBuf", func(x *Ctx, b BufRef) { x.DeallocateBuf(b) }},
		{"Forward", func(x *Ctx, b BufRef) { x.Forward(SendSpec{Dst: 1, Type: san.Data, Flow: 9}, b, 0, true) }},
		{"Size", func(_ *Ctx, b BufRef) { b.Size() }},
		{"End", func(_ *Ctx, b BufRef) { b.End() }},
	}
	panics := make([]any, len(uses))
	sw.Register(1, "stale", func(x *Ctx) {
		x.ReleaseArgs()
		cursor := int64(0x10000)
		for i, u := range uses {
			b := x.WaitStream(cursor)
			cursor = b.End()
			x.Deallocate(cursor)
			func() {
				defer func() { panics[i] = recover() }()
				u.use(x, b)
			}()
		}
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, invoke(sw, 0, 1, 0x8000, 7))
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x10000, Flow: 8}, Size: int64(len(uses)) * san.MTU}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	for i, u := range uses {
		if msg, _ := panics[i].(string); !strings.Contains(msg, "stale reference") {
			t.Errorf("%s on a freed buffer: recovered %v, want a stale-reference panic", u.name, panics[i])
		}
	}
}

// Live reports how many entries are mapped.
func (a *ATB) Live() int {
	n := 0
	for _, b := range a.entries {
		if b != nil {
			n++
		}
	}
	return n
}

// Peak reports the high-water mark of held buffers.
func (d *DBA) Peak() int { return d.peak }

// SetState replaces the per-switch state for this handler id.
func (x *Ctx) SetState(v any) { x.sw.states[x.inv.HandlerID] = v }

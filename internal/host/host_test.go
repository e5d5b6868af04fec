package host

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// loopback builds two hosts wired directly to each other (no switch), which
// exercises the host-side APIs in isolation.
func loopback(eng *sim.Engine) (*Host, *Host) {
	cfg := san.DefaultLinkConfig()
	ab := san.NewLink(eng, "ab", cfg)
	ba := san.NewLink(eng, "ba", cfg)
	a := New(eng, 1, "a", ba, ab, DefaultConfig())
	b := New(eng, 2, "b", ab, ba, DefaultConfig())
	a.Start()
	b.Start()
	return a, b
}

func TestDefaultOSConfigMatchesPaper(t *testing.T) {
	if IOPerRequest != 30*sim.Microsecond {
		t.Errorf("per-request = %v, want the paper's 30us", IOPerRequest)
	}
	if IOPerKB != 270*sim.Nanosecond {
		t.Errorf("per-KB = %v, want the paper's 0.27us", IOPerKB)
	}
}

func TestSendMessageChargesOverhead(t *testing.T) {
	eng := sim.NewEngine()
	a, b := loopback(eng)
	eng.Spawn("tx", func(p *sim.Proc) {
		a.SendMessage(p, &san.Message{Hdr: san.Header{Dst: 2, Type: san.Data}, Size: 256}, 0)
	})
	eng.Spawn("rx", func(p *sim.Proc) { b.RecvAny(p) })
	eng.Run()
	defer eng.Shutdown()
	if a.CPU().Breakdown().Busy != SendOverhead {
		t.Fatalf("sender busy = %v, want send overhead", a.CPU().Breakdown().Busy)
	}
	if b.CPU().Breakdown().Busy != RecvOverhead {
		t.Fatalf("receiver busy = %v, want recv overhead", b.CPU().Breakdown().Busy)
	}
}

func TestRecvFlowBuffersOthers(t *testing.T) {
	eng := sim.NewEngine()
	a, b := loopback(eng)
	eng.Spawn("tx", func(p *sim.Proc) {
		a.SendMessage(p, &san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 10}, Size: 64}, 0)
		a.SendMessage(p, &san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 20}, Size: 64}, 0)
	})
	var first, second int64
	eng.Spawn("rx", func(p *sim.Proc) {
		// Wait for the second flow first; the first must be buffered and
		// still retrievable.
		c := b.RecvFlow(p, 1, 20)
		first = c.Hdr.Flow
		c = b.RecvFlow(p, 1, 10)
		second = c.Hdr.Flow
	})
	eng.Run()
	defer eng.Shutdown()
	if first != 20 || second != 10 {
		t.Fatalf("flows = %d,%d", first, second)
	}
}

func TestRecvFlowFIFOPerFlow(t *testing.T) {
	eng := sim.NewEngine()
	a, b := loopback(eng)
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			a.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: 2, Type: san.Data, Flow: 7},
				Size:    64,
				Payload: i,
			}, 0)
		}
	})
	var order []int
	eng.Spawn("rx", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // let all three land in the buffer
		for i := 0; i < 3; i++ {
			c := b.RecvFlow(p, 1, 7)
			order = append(order, c.Payloads[0].(int))
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

func TestTryRecvFlow(t *testing.T) {
	eng := sim.NewEngine()
	a, b := loopback(eng)
	eng.Spawn("tx", func(p *sim.Proc) {
		a.SendMessage(p, &san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 33}, Size: 64}, 0)
	})
	var before, after bool
	eng.Spawn("rx", func(p *sim.Proc) {
		_, before = b.TryRecvFlow(1, 33)
		p.Sleep(100 * sim.Microsecond)
		_, after = b.TryRecvFlow(1, 33)
	})
	eng.Run()
	defer eng.Shutdown()
	if before {
		t.Fatal("TryRecvFlow succeeded before delivery")
	}
	if !after {
		t.Fatal("TryRecvFlow failed after delivery")
	}
}

func TestRecvAnyDrainsDeterministically(t *testing.T) {
	eng := sim.NewEngine()
	a, b := loopback(eng)
	eng.Spawn("tx", func(p *sim.Proc) {
		for _, f := range []int64{42, 17, 99} {
			a.SendMessage(p, &san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: f}, Size: 64}, 0)
		}
	})
	var flows []int64
	eng.Spawn("rx", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		// Force all three into the held buffer, then drain.
		b.RecvFlow(p, 1, 42)
		for i := 0; i < 2; i++ {
			flows = append(flows, b.RecvAny(p).Hdr.Flow)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	// Buffered completions drain lowest flow first.
	if len(flows) != 2 || flows[0] != 17 || flows[1] != 99 {
		t.Fatalf("drain order = %v, want [17 99]", flows)
	}
}

func TestSpaceAndTrafficAccessors(t *testing.T) {
	eng := sim.NewEngine()
	a, _ := loopback(eng)
	r1 := a.Space().Alloc(4096, 4096)
	r2 := a.Space().Alloc(4096, 4096)
	if r1 == r2 {
		t.Fatal("allocations collided")
	}
	if a.Traffic() != 0 {
		t.Fatal("fresh host has traffic")
	}
	eng.Shutdown()
}

package nic

import (
	"testing"

	"activesan/internal/memsys"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// pair wires two NICs back to back and starts them.
func pair(eng *sim.Engine) (*NIC, *NIC) {
	cfg := san.DefaultLinkConfig()
	ab := san.NewLink(eng, "ab", cfg)
	ba := san.NewLink(eng, "ba", cfg)
	memA := memsys.New(eng)
	memB := memsys.New(eng)
	a := New(eng, 1, "a", ba, ab, memA)
	b := New(eng, 2, "b", ab, ba, memB)
	a.Start()
	b.Start()
	return a, b
}

func TestMessageRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	a.Post(&san.Message{
		Hdr:     san.Header{Dst: 2, Type: san.Data, Addr: 0x1000},
		Size:    int64(len(data)),
		Payload: nil,
		Split:   san.SliceSplit(data),
	}, 0x2000)
	var got *Completion
	eng.Spawn("rx", func(p *sim.Proc) { got = b.Recv(p) })
	eng.Run()
	defer eng.Shutdown()
	if got == nil {
		t.Fatal("no completion")
	}
	if got.Size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", got.Size, len(data))
	}
	rebuilt := got.Bytes()
	for i := range data {
		if rebuilt[i] != data[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	if got.DoneAt <= got.FirstAt {
		t.Fatal("multi-packet message finished before it started")
	}
}

func TestInterleavedFlowsReassemble(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	// Two messages from the same source with different flows; both must
	// reassemble independently.
	a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 100}, Size: 1500}, 0)
	a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 200}, Size: 700}, 0)
	var sizes []int64
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			sizes = append(sizes, b.Recv(p).Size)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(sizes) != 2 {
		t.Fatalf("got %d completions", len(sizes))
	}
	if sizes[0]+sizes[1] != 2200 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestSequentialSameFlowMessages(t *testing.T) {
	// Back-to-back messages on one flow terminate at each Last packet.
	eng := sim.NewEngine()
	a, b := pair(eng)
	for i := 0; i < 3; i++ {
		a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Flow: 55}, Size: 512}, 0)
	}
	count := 0
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.Recv(p)
			count++
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if count != 3 {
		t.Fatalf("completions = %d, want 3", count)
	}
	if b.Stats().MessagesIn != 3 || b.Stats().PacketsIn != 3 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestPostLatchOpensAfterWire(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	done := a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data}, Size: 4096}, 0)
	if done.Opened() {
		t.Fatal("latch open before transmission")
	}
	eng.Spawn("rx", func(p *sim.Proc) { b.Recv(p) })
	eng.Spawn("waiter", func(p *sim.Proc) {
		done.Wait(p)
		// 4 KB + headers at 1 GB/s is a bit over 4 us.
		if p.Now() < 4*sim.Microsecond {
			t.Errorf("latch opened at %v, too early", p.Now())
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if !done.Opened() {
		t.Fatal("latch never opened")
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data}, Size: 1024}, 0)
	eng.Spawn("rx", func(p *sim.Proc) { b.Recv(p) })
	eng.Run()
	defer eng.Shutdown()
	if a.Stats().BytesOut != 1024 || a.Stats().Traffic() != 1024 {
		t.Fatalf("tx stats = %+v", a.Stats())
	}
	if b.Stats().BytesIn != 1024 {
		t.Fatalf("rx stats = %+v", b.Stats())
	}
}

func TestInvalidatorCalledPerDMA(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	var calls int
	var bytes int64
	b.SetInvalidator(func(base, n int64) {
		calls++
		bytes += n
	})
	a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data, Addr: 0x4000}, Size: 2048}, 0)
	eng.Spawn("rx", func(p *sim.Proc) { b.Recv(p) })
	eng.Run()
	defer eng.Shutdown()
	if calls != 4 {
		t.Fatalf("invalidator calls = %d, want 4 packets", calls)
	}
	if bytes != 2048 {
		t.Fatalf("invalidated %d bytes, want 2048", bytes)
	}
}

func TestNextFlowUnique(t *testing.T) {
	eng := sim.NewEngine()
	a, _ := pair(eng)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		f := a.NextFlow()
		if seen[f] {
			t.Fatalf("flow %d repeated", f)
		}
		seen[f] = true
	}
	eng.Shutdown()
}

func TestTryRecvAndPending(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
	a.Post(&san.Message{Hdr: san.Header{Dst: 2, Type: san.Data}, Size: 64}, 0)
	eng.Run()
	defer eng.Shutdown()
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	if c, ok := b.TryRecv(); !ok || c.Size != 64 {
		t.Fatal("TryRecv failed after delivery")
	}
}

// Pending reports queued-but-unread completions.
func (n *NIC) Pending() int { return n.comps.Len() }

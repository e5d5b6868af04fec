package iodev

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// rig builds one storage node whose links loop back to a test endpoint.
func rig(eng *sim.Engine) (*StorageNode, *san.Link, *san.Link) {
	cfg := san.DefaultLinkConfig()
	toStore := san.NewLink(eng, "to", cfg)
	fromStore := san.NewLink(eng, "from", cfg)
	s := New(eng, 200, "d0", toStore, fromStore)
	s.Start()
	return s, toStore, fromStore
}

func request(p *sim.Proc, l *san.Link, req any, flow int64) {
	l.Send(p, &san.Packet{
		Hdr:     san.Header{Src: 1, Dst: 200, Type: san.IORequest, Flow: flow, Last: true},
		Size:    64,
		Payload: req,
	})
}

func TestReadStreamsPackets(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	s.AddFile(&File{Name: "f", Size: 2048, Data: data})
	var got []byte
	var first, last sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "f", Off: 0, Len: 2048, Dst: 1, DstAddr: 0, Type: san.Data, Flow: 9}, 1)
		for len(got) < 2048 {
			pkt := fromStore.Recv(p)
			if first == 0 {
				first = p.Now()
			}
			last = p.Now()
			got = append(got, pkt.Payload.([]byte)...)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	// First packet must wait out seek+rotation; the stream is paced by the
	// 100 MB/s disk (5.12 us per packet).
	if first < 8*sim.Millisecond {
		t.Fatalf("first packet at %v, before seek+rotation", first)
	}
	if d := last - first; d < 15*sim.Microsecond {
		t.Fatalf("stream spread %v too tight for disk pacing", d)
	}
	st := s.Stats()
	if st.Reads != 1 || st.BytesRead != 2048 || st.Seeks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSequentialReadsSkipSeek(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 4096})
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "f", Off: 0, Len: 2048, Dst: 1, Type: san.Data, Flow: 1}, 1)
		request(p, toStore, ReadReq{File: "f", Off: 2048, Len: 2048, Dst: 1, Type: san.Data, Flow: 2}, 2)
		for i := 0; i < 8; i++ {
			fromStore.Recv(p)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	st := s.Stats()
	if st.Seeks != 1 || st.Sequential != 1 {
		t.Fatalf("seeks/sequential = %d/%d, want 1/1", st.Seeks, st.Sequential)
	}
}

func TestNotifyControlPacket(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 512})
	var sawNotify bool
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{
			File: "f", Len: 512, Dst: 1, Type: san.Data, Flow: 1,
			Notify: 1, NotifyFlow: 77,
		}, 1)
		for i := 0; i < 2; i++ {
			pkt := fromStore.Recv(p)
			if pkt.Hdr.Type == san.Control && pkt.Hdr.Flow == 77 {
				sawNotify = true
			}
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	_ = s
	if !sawNotify {
		t.Fatal("no completion notification")
	}
}

// The TCA serves reads only. A stray Data packet and an IORequest that
// carries no ReadReq are dropped with their credits returned, and the read
// behind them is served whole.
func TestTCAServesOnlyReadRequests(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 2048})
	stray := san.Header{Src: 1, Dst: 200, Type: san.Data, Flow: 3, Last: true}
	var got, bytes int64
	var drained bool
	eng.Spawn("client", func(p *sim.Proc) {
		toStore.Send(p, &san.Packet{Hdr: stray, Size: 512})
		request(p, toStore, "not a read", 4)
		request(p, toStore, ReadReq{File: "f", Len: 2048, Dst: 1, Type: san.Data, Flow: 5}, 5)
		for ; bytes < 2048; got++ {
			pkt := fromStore.Recv(p)
			if pkt.Hdr.Type != san.Data || pkt.Hdr.Flow != 5 {
				t.Errorf("packet %d is %s flow %d, want the read's data on flow 5", got, pkt.Hdr.Type, pkt.Hdr.Flow)
			}
			bytes += pkt.Size
			fromStore.ReturnCredit()
		}
		// The link takes its full credit count of packets without waiting
		// only if the node returned every credit.
		at := p.Now()
		for i := 0; i < san.DefaultLinkConfig().Credits; i++ {
			toStore.SendAsync(p, &san.Packet{Hdr: stray, Size: 64})
		}
		drained = p.Now() == at
	})
	eng.Run()
	defer eng.Shutdown()
	if got != 4 || bytes != 2048 {
		t.Fatalf("read delivered %d packets of %d bytes, want 4 of 2048", got, bytes)
	}
	if _, extra := fromStore.TryRecv(); extra {
		t.Fatal("the node answered a packet that was not a read request")
	}
	if !drained {
		t.Fatal("the node kept credits of the packets it dropped")
	}
	if st := s.Stats(); st.Reads != 1 || st.BytesRead != 2048 {
		t.Fatalf("stats = %+v, want one read of 2048 bytes", st)
	}
}

func TestStripedReadTagsPackets(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 4096})
	var cpus []int
	var addrs []int64
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{
			File: "f", Len: 4096, Dst: 1, DstAddr: 0x1000, Type: san.Data, Flow: 1,
			Stripe: 1024, Ways: 2, WayStride: 0x100000,
		}, 1)
		for i := 0; i < 8; i++ {
			pkt := fromStore.Recv(p)
			cpus = append(cpus, pkt.Hdr.CPUID)
			addrs = append(addrs, pkt.Hdr.Addr)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	// 1024-byte stripes of a 4096-byte read across 2 ways: packets 0,1 to
	// way 0; 2,3 to way 1; 4,5 to way 0; 6,7 to way 1.
	wantCPU := []int{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range wantCPU {
		if cpus[i] != wantCPU[i] {
			t.Fatalf("cpu tags = %v, want %v", cpus, wantCPU)
		}
	}
	// Way-0 chain addresses are contiguous from DstAddr.
	if addrs[0] != 0x1000 || addrs[1] != 0x1200 || addrs[4] != 0x1400 {
		t.Fatalf("way-0 addrs = %#x %#x %#x", addrs[0], addrs[1], addrs[4])
	}
	// Way-1 chain starts at DstAddr + WayStride.
	if addrs[2] != 0x101000 || addrs[6] != 0x101400 {
		t.Fatalf("way-1 addrs = %#x %#x", addrs[2], addrs[6])
	}
}

func TestReadUnknownFilePanics(t *testing.T) {
	eng := sim.NewEngine()
	_, toStore, _ := rig(eng)
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "missing", Len: 512, Dst: 1, Type: san.Data, Flow: 1}, 1)
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("read of unknown file did not panic")
		}
	}()
	eng.Run()
}

func TestFileGenPayload(t *testing.T) {
	f := &File{Name: "g", Size: 1024, Gen: func(off, n int64) any { return off }}
	if got := f.payload(512, 128); got != int64(512) {
		t.Fatalf("gen payload = %v", got)
	}
	fd := &File{Name: "d", Size: 4, Data: []byte{1, 2, 3, 4}}
	if got := fd.payload(1, 2).([]byte); got[0] != 2 || got[1] != 3 {
		t.Fatalf("data payload = %v", got)
	}
	fn := &File{Name: "n", Size: 4}
	if fn.payload(0, 4) != nil {
		t.Fatal("nil-content file returned payload")
	}
}

func TestDuplicateFilePanics(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := rig(eng)
	s.AddFile(&File{Name: "x", Size: 1})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("duplicate AddFile did not panic")
		}
	}()
	s.AddFile(&File{Name: "x", Size: 1})
}

// A client that receives a read's packets one at a time costs the same
// goroutine handoffs whatever the read's length: the storage node's disk
// and TCA processes run inline on whichever goroutine drives, so the
// client's own goroutine carries the whole stream.
func TestReadHandoffsIndependentOfLength(t *testing.T) {
	handoffs := func(packets int) int64 {
		eng := sim.NewEngine()
		s, toStore, fromStore := rig(eng)
		n := int64(packets) * san.MTU
		s.AddFile(&File{Name: "f", Size: n})
		got := 0
		eng.Spawn("client", func(p *sim.Proc) {
			request(p, toStore, ReadReq{File: "f", Len: n, Dst: 1, Type: san.Data, Flow: 1}, 1)
			for ; got < packets; got++ {
				fromStore.Recv(p)
				fromStore.ReturnCredit()
			}
		})
		eng.Run()
		defer eng.Shutdown()
		if got != packets {
			t.Fatalf("client received %d of %d packets", got, packets)
		}
		return eng.Handoffs()
	}
	if short, long := handoffs(4), handoffs(128); short != long {
		t.Fatalf("a 4-packet read cost %d goroutine handoffs, a 128-packet read %d", short, long)
	}
}

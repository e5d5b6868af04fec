package cluster

import (
	"testing"

	"activesan/internal/aswitch"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

func TestIOClusterNormalRead(t *testing.T) {
	eng := sim.NewEngine()
	c := NewIOCluster(eng, DefaultIOClusterConfig())
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i)
	}
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: int64(len(data)), Data: data})
	c.Start()
	h := c.Host(0)
	var got []byte
	var done sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		buf := h.Space().Alloc(64*1024, 4096)
		tok := h.IssueRead(p, c.Store(0).ID(), "f", 0, 64*1024, buf)
		comp := h.WaitRead(p, tok)
		got = comp.Bytes()
		done = p.Now()
	})
	eng.Run()
	defer c.Shutdown()

	if len(got) != len(data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted in transit", i)
		}
	}
	// Timing sanity: 30us OS + ~8ms seek+rotation + 64KB at 100 MB/s
	// (655us) + wire time. Must be at least the disk component.
	if done < 8*sim.Millisecond {
		t.Fatalf("read completed at %v, faster than seek+rotation", done)
	}
	if done > 12*sim.Millisecond {
		t.Fatalf("read completed at %v, too slow", done)
	}
	// Host I/O traffic counts the data in plus the request out.
	if tr := h.Traffic(); tr < 64*1024 || tr > 64*1024+256 {
		t.Fatalf("host traffic = %d", tr)
	}
	reqs, bytes := h.IOStats()
	if reqs != 1 || bytes != 64*1024 {
		t.Fatalf("io stats = %d reqs / %d bytes", reqs, bytes)
	}
}

func TestIOClusterSequentialStreamsAtDiskRate(t *testing.T) {
	eng := sim.NewEngine()
	c := NewIOCluster(eng, DefaultIOClusterConfig())
	const total = 1 << 20 // 1 MB in 16 x 64 KB requests
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
	c.Start()
	h := c.Host(0)
	var done sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		buf := h.Space().Alloc(64*1024, 4096)
		for off := int64(0); off < total; off += 64 * 1024 {
			tok := h.IssueRead(p, c.Store(0).ID(), "f", off, 64*1024, buf)
			h.WaitRead(p, tok)
		}
		done = p.Now()
	})
	eng.Run()
	defer c.Shutdown()
	st := c.Store(0).Stats()
	if st.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1 (sequential detection)", st.Seeks)
	}
	if st.Sequential != 15 {
		t.Fatalf("sequential = %d, want 15", st.Sequential)
	}
	// Synchronous loop: disk transfer (10.5ms) + seek (8ms) + 16 round
	// trips of OS overhead. Far below 25 ms, above 18 ms.
	if done < 18*sim.Millisecond || done > 25*sim.Millisecond {
		t.Fatalf("1MB sync read took %v", done)
	}
}

func TestIOClusterPrefetchOverlaps(t *testing.T) {
	run := func(outstanding int) sim.Time {
		eng := sim.NewEngine()
		c := NewIOCluster(eng, DefaultIOClusterConfig())
		const total = 4 << 20
		c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
		c.Start()
		h := c.Host(0)
		var done sim.Time
		eng.Spawn("app", func(p *sim.Proc) {
			buf := h.Space().Alloc(64*1024, 4096)
			var pending []*host.ReadToken
			issue := func(off int64) {
				pending = append(pending, h.IssueRead(p, c.Store(0).ID(), "f", off, 64*1024, buf))
			}
			off := int64(0)
			for i := 0; i < outstanding && off < total; i++ {
				issue(off)
				off += 64 * 1024
			}
			for len(pending) > 0 {
				h.WaitRead(p, pending[0])
				pending = pending[1:]
				if off < total {
					issue(off)
					off += 64 * 1024
				}
			}
			done = p.Now()
		})
		eng.Run()
		c.Shutdown()
		return done
	}
	sync, pref := run(1), run(2)
	if pref >= sync {
		t.Fatalf("prefetch (%v) not faster than sync (%v)", pref, sync)
	}
	// With 2 outstanding requests a 4 MB stream should approach the disk's
	// 100 MB/s: < 50 ms total; the sync case pays per-request stalls.
	if pref > 55*sim.Millisecond {
		t.Fatalf("prefetch run took %v", pref)
	}
}

func TestIOClusterActiveReadToSwitch(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultIOClusterConfig()
	c := NewIOCluster(eng, cfg)
	const n = 128 * 1024
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: n})
	sw := c.Switch(0)
	var streamed int64
	sw.Register(1, "count", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		cursor := int64(1 << 20)
		for streamed < n {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			streamed += b.Size()
			cursor = b.End()
			x.Deallocate(cursor)
		}
		// Tell the host we are done.
		x.Send(aswitch.SendSpec{Dst: x.Src(), Type: san.Data, Addr: 0x100, Size: 16, Flow: 777})
	})
	c.Start()
	h := c.Host(0)
	eng.Spawn("app", func(p *sim.Proc) {
		// Invoke the handler, then stream the file at it.
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
			Size: 32,
		}, 0)
		flow := int64(555)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "f", 0, n, sw.ID(), 1<<20, flow)
		h.WaitRead(p, tok)
		h.RecvFlow(p, sw.ID(), 777)
	})
	eng.Run()
	defer c.Shutdown()
	if streamed != n {
		t.Fatalf("handler streamed %d bytes, want %d", streamed, n)
	}
	// The file bypassed the host: traffic is requests + the 16-byte note.
	if tr := h.Traffic(); tr > 2048 {
		t.Fatalf("host traffic = %d, want near zero", tr)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("switch leaked %d buffers", sw.DBA().InUse())
	}
}

func TestTreeClusterRouting(t *testing.T) {
	eng := sim.NewEngine()
	c := NewTreeCluster(eng, DefaultTreeConfig(32)) // 4 leaves + root
	if len(c.Switches) != 5 {
		t.Fatalf("32 hosts / 8 per leaf: got %d switches, want 5", len(c.Switches))
	}
	if len(c.Hosts) != 32 {
		t.Fatalf("hosts = %d", len(c.Hosts))
	}
	c.Start()
	// Host 0 (leaf 0) sends to host 31 (leaf 3): must cross the root.
	h0, h31 := c.Host(0), c.Host(31)
	var got bool
	eng.Spawn("rx", func(p *sim.Proc) {
		comp := h31.RecvAny(p)
		got = comp.Hdr.Src == h0.ID()
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		h0.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: h31.ID(), Type: san.Data, Addr: 0x1000},
			Size: 512,
		}, 0)
	})
	eng.Run()
	defer c.Shutdown()
	if !got {
		t.Fatal("cross-tree message not delivered")
	}
}

func TestTreeClusterSingleLeaf(t *testing.T) {
	eng := sim.NewEngine()
	c := NewTreeCluster(eng, DefaultTreeConfig(8))
	if len(c.Switches) != 1 {
		t.Fatalf("8 hosts: got %d switches, want 1", len(c.Switches))
	}
	c.Start()
	var ok bool
	eng.Spawn("rx", func(p *sim.Proc) {
		c.Host(7).RecvAny(p)
		ok = true
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		c.Host(0).SendMessage(p, &san.Message{Hdr: san.Header{Dst: c.Host(7).ID(), Type: san.Data}, Size: 128}, 0)
	})
	eng.Run()
	defer c.Shutdown()
	if !ok {
		t.Fatal("intra-leaf message not delivered")
	}
}

func TestTreeClusterSwitchAddressable(t *testing.T) {
	// Hosts can send active messages to their leaf switch, and switches can
	// reach other switches (the reduction tree's partial-vector path).
	eng := sim.NewEngine()
	c := NewTreeCluster(eng, DefaultTreeConfig(16)) // 2 leaves + root
	if len(c.Switches) != 3 {
		t.Fatalf("switches = %d, want 3", len(c.Switches))
	}
	leaf := c.Switches[1]
	root := c.Switches[0]
	hits := 0
	handler := func(x *aswitch.Ctx) {
		hits++
		x.ReleaseArgs()
		if x.Switch() == leaf {
			x.Send(aswitch.SendSpec{Dst: root.ID(), Type: san.ActiveMsg, HandlerID: 2, Addr: 512})
		}
	}
	leaf.Register(2, "up", handler)
	root.Register(2, "up", handler)
	c.Start()
	eng.Spawn("tx", func(p *sim.Proc) {
		c.Host(0).SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: leaf.ID(), Type: san.ActiveMsg, HandlerID: 2, Addr: 0},
			Size: 64,
		}, 0)
	})
	eng.Run()
	defer c.Shutdown()
	if hits != 2 {
		t.Fatalf("handler hits = %d, want 2 (leaf then root)", hits)
	}
}

func TestActiveStreamAcrossSwitches(t *testing.T) {
	// Data destined to an active switch must traverse intermediate
	// switches like any other packet: host on switch A aims a disk read at
	// A's handler, but the storage node hangs off switch B.
	eng := sim.NewEngine()
	swA := aswitch.New(eng, 100, "swA", aswitch.DefaultConfig(2))
	swB := aswitch.New(eng, 101, "swB", aswitch.DefaultConfig(2))
	lcfg := swA.Config().Link
	mk := func(n string) *san.Link { return san.NewLink(eng, n, lcfg) }

	hostUp, hostDown := mk("h.up"), mk("h.down")
	swA.AttachPort(0, hostUp, hostDown)
	abUp, abDown := mk("ab"), mk("ba")
	swA.AttachPort(1, abDown, abUp)
	swB.AttachPort(0, abUp, abDown)
	storeUp, storeDown := mk("d.up"), mk("d.down")
	swB.AttachPort(1, storeUp, storeDown)

	const hostID, storeID = 1, 200
	swA.SetRoute(hostID, 0)
	swA.SetRoute(storeID, 1)
	swA.SetRoute(swB.ID(), 1)
	swB.SetRoute(hostID, 0)
	swB.SetRoute(swA.ID(), 0)
	swB.SetRoute(storeID, 1)

	h := host.New(eng, hostID, "h", hostDown, hostUp, host.DefaultConfig())
	store := iodev.New(eng, storeID, "d", storeDown, storeUp, iodev.DefaultConfig())
	const total = 64 * 1024
	store.AddFile(&iodev.File{Name: "f", Size: total})

	var streamed int64
	swA.Register(1, "count", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		cursor := int64(0x100000)
		for streamed < total {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			streamed += b.Size()
			cursor = b.End()
			x.Deallocate(cursor)
		}
		x.Send(aswitch.SendSpec{Dst: x.Src(), Type: san.Control, Addr: 0x10, Size: 8, Flow: 777})
	})
	swA.Start()
	swB.Start()
	h.Start()
	store.Start()

	done := false
	eng.Spawn("app", func(p *sim.Proc) {
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: swA.ID(), Type: san.ActiveMsg, HandlerID: 1},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, storeID, "f", 0, total, swA.ID(), 0x100000, 0x6600)
		h.WaitRead(p, tok)
		h.RecvFlow(p, swA.ID(), 777)
		done = true
	})
	eng.Run()
	defer eng.Shutdown()
	if !done || streamed != total {
		t.Fatalf("done=%v streamed=%d, want %d", done, streamed, total)
	}
	// The data crossed swB as plain routed packets.
	if swB.Stats().Routed < total/512 {
		t.Fatalf("swB routed %d packets, want at least %d", swB.Stats().Routed, total/512)
	}
}

func TestDualIOCluster(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultIOClusterConfig()
	cfg.Hosts = 2
	c := NewDualIOCluster(eng, cfg)
	if len(c.Switches) != 2 {
		t.Fatalf("switches = %d", len(c.Switches))
	}
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: 64 * 1024})
	c.Start()
	h := c.Host(0)
	done := false
	eng.Spawn("app", func(p *sim.Proc) {
		buf := h.Space().Alloc(64*1024, 4096)
		tok := h.IssueRead(p, c.Store(0).ID(), "f", 0, 64*1024, buf)
		h.WaitRead(p, tok)
		// Host-to-host on the same switch must not cross the trunk.
		h.SendMessage(p, &san.Message{Hdr: san.Header{Dst: c.Host(1).ID(), Type: san.Data}, Size: 512}, 0)
		done = true
	})
	eng.Spawn("rx", func(p *sim.Proc) { c.Host(1).RecvAny(p) })
	eng.Run()
	defer c.Shutdown()
	if !done {
		t.Fatal("read across the trunk never completed")
	}
	// The disk data crossed the trunk: the storage switch routed it.
	if c.Switch(1).Stats().Routed < 128 {
		t.Fatalf("storage switch routed %d packets", c.Switch(1).Stats().Routed)
	}
}

func TestTreeConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("bad tree config did not panic")
		}
	}()
	NewTreeCluster(eng, TreeConfig{Hosts: 0})
}

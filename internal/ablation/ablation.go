// Package ablation studies the active switch's design choices in isolation
// — the claims DESIGN.md calls out beyond the paper's headline figures:
//
//   - Design goal 1 (Section 2): "the presence of active switches should
//     not degrade the performance of non-active messages" — measured as
//     host-to-host throughput and latency with and without a concurrently
//     saturated switch handler.
//   - Data-buffer count (the paper picks 16): streaming throughput versus
//     pool size.
//   - Per-line valid bits (the paper calls them "crucial"): message
//     latency with 32-byte lines versus whole-packet validity.
//   - Send-unit reserve: a send-heavy handler versus the DBA's output
//     reservation.
//   - Switch CPU clock: where the host/switch partition stops paying off.
//
// Every study takes the run's apps.Env and observes its clusters with it
// (trace sink, strict routes); none arms a fault plan or telemetry.
package ablation

import (
	"fmt"
	"strings"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// streamHandler registers a handler that consumes `total` bytes mapped at
// base, charging `cycPerByte`, forwarding a fraction to fwdDst when
// keepNum/keepDen > 0, and firing done when finished.
func streamHandler(sw *aswitch.ActiveSwitch, id int, base, total int64,
	cycPerByte int64, fwdDst san.NodeID, keepNum, keepDen int64, done *sim.Latch) {
	sw.Register(id, "ablation-stream", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		cursor := base
		end := base + total
		var kept, seen int64
		for cursor < end {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			if cycPerByte > 0 {
				x.Compute(cycPerByte * b.Size())
			}
			seen += b.Size()
			if keepDen > 0 && fwdDst != san.NoNode {
				kept += b.Size() * keepNum / keepDen
				if kept >= 32*1024 {
					x.Send(aswitch.SendSpec{
						Dst: fwdDst, Type: san.Data, Addr: 0x0300_0000,
						Size: kept, Flow: 0x7100,
					})
					kept = 0
				}
			}
			cursor = b.End()
			x.Deallocate(cursor)
		}
		if kept > 0 && fwdDst != san.NoNode {
			x.Send(aswitch.SendSpec{
				Dst: fwdDst, Type: san.Data, Addr: 0x0300_0000,
				Size: kept, Flow: 0x7100,
			})
		}
		done.Open()
	})
}

// InterferenceResult reports design goal 1.
type InterferenceResult struct {
	// Baseline is host0->host1 bulk throughput (bytes/sec) with the switch
	// CPU idle; WithActive is the same while a handler consumes a full
	// disk stream.
	Baseline, WithActive float64
	// BaselineLat and WithActiveLat are mean small-message delivery times.
	BaselineLat, WithActiveLat sim.Time
}

// Degradation returns the throughput loss fraction (0 = none).
func (r InterferenceResult) Degradation() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return 1 - r.WithActive/r.Baseline
}

// Interference measures non-active traffic with and without active load.
func Interference(env apps.Env) InterferenceResult {
	run := func(active bool) (float64, sim.Time) {
		eng := sim.NewEngine()
		ccfg := cluster.DefaultIOClusterConfig()
		ccfg.Hosts = 3
		c := cluster.NewIOCluster(eng, ccfg)
		env.Observe(c)
		const bulk = 8 << 20
		const streamLen = 8 << 20
		c.Store(0).AddFile(&iodev.File{Name: "bg", Size: streamLen})
		sw := c.Switch(0)
		done := sim.NewLatch()
		if active {
			streamHandler(sw, 1, 0x0010_0000, streamLen, 8, san.NoNode, 0, 0, done)
		}
		c.Start()

		h0, h1, h2 := c.Host(0), c.Host(1), c.Host(2)
		var thr float64
		var latSum sim.Time
		var latN int64
		var wg sim.WaitGroup
		wg.Add(2)

		// Non-active workload: bulk stream + spaced latency probes.
		eng.Spawn("bulk", func(p *sim.Proc) {
			defer wg.Done()
			start := p.Now()
			for off := int64(0); off < bulk; off += 64 * 1024 {
				l := h0.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: h1.ID(), Type: san.Data, Addr: 0x1000, Flow: 0x100},
					Size: 64 * 1024,
				}, 0)
				l.Wait(p)
			}
			thr = float64(bulk) / (p.Now() - start).Seconds()
			// Latency probes after the bulk phase.
			for i := 0; i < 32; i++ {
				p.Sleep(20 * sim.Microsecond)
				sent := p.Now()
				h0.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: h1.ID(), Type: san.Data, Addr: 0x2000, Flow: 0x200},
					Size: 512,
				}, 0)
				comp := h0.RecvFlow(p, h1.ID(), 0x300)
				_ = comp
				latSum += p.Now() - sent
				latN++
			}
		})
		eng.Spawn("sink", func(p *sim.Proc) {
			defer wg.Done()
			var got int64
			for got < bulk {
				got += h1.RecvAny(p).Size
			}
			for i := 0; i < 32; i++ {
				h1.RecvFlow(p, h0.ID(), 0x200)
				h1.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: h0.ID(), Type: san.Control, Flow: 0x300},
					Size: 16,
				}, 0)
			}
		})
		if active {
			// Background active stream: disk -> switch handler, looping
			// requests so the handler stays saturated the whole run.
			eng.Spawn("bg", func(p *sim.Proc) {
				h2.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
					Size: 32,
				}, 0)
				tok := h2.IssueReadTo(p, c.Store(0).ID(), "bg", 0, streamLen,
					sw.ID(), 0x0010_0000, san.Data, 0, 0, 0x6100)
				h2.WaitRead(p, tok)
				done.Wait(p)
			})
		}
		eng.Spawn("main", func(p *sim.Proc) { wg.Wait(p) })
		eng.Run()
		c.Shutdown()
		return thr, latSum / sim.Time(latN)
	}

	var r InterferenceResult
	r.Baseline, r.BaselineLat = run(false)
	r.WithActive, r.WithActiveLat = run(true)
	return r
}

// ThroughputPoint is one configuration of a sweep.
type ThroughputPoint struct {
	X     int
	Bytes float64 // bytes/sec achieved
}

// forwardRun streams total bytes disk -> handler -> host1 with the given
// switch configuration and returns the achieved throughput.
func forwardRun(env apps.Env, swCfg aswitch.Config, total int64, cycPerByte int64) float64 {
	eng := sim.NewEngine()
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	ccfg.Switch = swCfg
	c := cluster.NewIOCluster(eng, ccfg)
	env.Observe(c)
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
	sw := c.Switch(0)
	done := sim.NewLatch()
	streamHandler(sw, 1, 0x0010_0000, total, cycPerByte, c.Host(1).ID(), 1, 1, done)
	c.Start()
	var elapsed sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "f", 0, total,
			sw.ID(), 0x0010_0000, san.Data, 0, 0, 0x6200)
		h.WaitRead(p, tok)
		done.Wait(p)
		elapsed = p.Now()
	})
	eng.Spawn("sink", func(p *sim.Proc) {
		var got int64
		for got < total {
			got += c.Host(1).RecvAny(p).Size
		}
	})
	eng.Run()
	c.Shutdown()
	return float64(total) / elapsed.Seconds()
}

// BufferCount sweeps the data-buffer pool size for a forwarding stream.
func BufferCount(env apps.Env, counts []int) []ThroughputPoint {
	var out []ThroughputPoint
	for _, n := range counts {
		cfg := aswitch.DefaultConfig(8)
		cfg.NumBuffers = n
		out = append(out, ThroughputPoint{X: n, Bytes: forwardRun(env, cfg, 4<<20, 2)})
	}
	return out
}

// OutReserve sweeps the send-unit reservation for a send-heavy handler.
func OutReserve(env apps.Env, reserves []int) []ThroughputPoint {
	var out []ThroughputPoint
	for _, n := range reserves {
		cfg := aswitch.DefaultConfig(8)
		cfg.OutReserve = n
		out = append(out, ThroughputPoint{X: n, Bytes: forwardRun(env, cfg, 4<<20, 2)})
	}
	return out
}

// CPUClock sweeps the switch processor frequency (MHz) for a compute-heavy
// filter (8 cycles/byte).
func CPUClock(env apps.Env, mhz []int) []ThroughputPoint {
	var out []ThroughputPoint
	for _, f := range mhz {
		cfg := aswitch.DefaultConfig(8)
		cfg.CPUClock = sim.Clock{Period: sim.Time(1_000_000/f) * sim.Picosecond}
		out = append(out, ThroughputPoint{X: f, Bytes: forwardRun(env, cfg, 4<<20, 8)})
	}
	return out
}

// ValidBitGranularity returns one-message pipeline latency with fine
// (32-byte) and coarse (whole-packet) valid bits: the time from invocation
// until a handler has touched the head of every packet of a 64 KB message.
func ValidBitGranularity(env apps.Env) (fine, coarse sim.Time) {
	run := func(lineBytes int64) sim.Time {
		eng := sim.NewEngine()
		ccfg := cluster.DefaultIOClusterConfig()
		ccfg.Switch.ValidLineBytes = lineBytes
		c := cluster.NewIOCluster(eng, ccfg)
		env.Observe(c)
		const total = 64 * 1024
		c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
		sw := c.Switch(0)
		var finished sim.Time
		sw.Register(1, "peek", func(x *aswitch.Ctx) {
			x.ReleaseArgs()
			cursor := int64(0x0010_0000)
			end := cursor + total
			for cursor < end {
				b := x.WaitStream(cursor)
				// Touch only the head of each packet: with per-line valid
				// bits this returns after 1 line; with whole-packet
				// validity it waits for the tail.
				x.Peek(b, 8)
				cursor = b.End()
				x.Deallocate(cursor)
			}
			finished = x.Now()
		})
		c.Start()
		eng.Spawn("app", func(p *sim.Proc) {
			h := c.Host(0)
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
				Size: 32,
			}, 0)
			tok := h.IssueReadTo(p, c.Store(0).ID(), "f", 0, total,
				sw.ID(), 0x0010_0000, san.Data, 0, 0, 0x6300)
			h.WaitRead(p, tok)
		})
		eng.Run()
		c.Shutdown()
		return finished
	}
	return run(32), run(san.MTU)
}

// Report runs every ablation and renders a text summary.
func Report(env apps.Env) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== ablation: design-choice studies ==\n")

	r := Interference(env)
	fmt.Fprintf(&b, "-- design goal 1: non-active traffic vs a saturated handler --\n")
	fmt.Fprintf(&b, "host-to-host throughput: %.1f MB/s idle, %.1f MB/s under active load (%.2f%% degradation)\n",
		r.Baseline/1e6, r.WithActive/1e6, 100*r.Degradation())
	fmt.Fprintf(&b, "small-message latency:   %v idle, %v under active load\n", r.BaselineLat, r.WithActiveLat)

	fmt.Fprintf(&b, "-- data-buffer pool size (forwarding stream) --\n")
	for _, pt := range BufferCount(env, []int{4, 8, 16, 32}) {
		fmt.Fprintf(&b, "buffers=%-3d  %.1f MB/s\n", pt.X, pt.Bytes/1e6)
	}

	fine, coarse := ValidBitGranularity(env)
	fmt.Fprintf(&b, "-- valid-bit granularity (head-of-packet pipeline) --\n")
	fmt.Fprintf(&b, "32-byte lines: %v   whole-packet: %v (fine bits win by %v)\n",
		fine, coarse, coarse-fine)

	fmt.Fprintf(&b, "-- send-unit reserve (send-heavy handler) --\n")
	for _, pt := range OutReserve(env, []int{1, 2, 4}) {
		fmt.Fprintf(&b, "reserve=%-3d  %.1f MB/s\n", pt.X, pt.Bytes/1e6)
	}

	fmt.Fprintf(&b, "-- active-case request size vs host utilization --\n")
	for _, pt := range RequestSize(env, []int64{64 * 1024, 256 * 1024, 1 << 20}) {
		fmt.Fprintf(&b, "request=%-5dKB host-util=%.4f\n", pt.X, pt.Bytes/1e6)
	}

	pl := FilterPlacement(env)
	fmt.Fprintf(&b, "-- filter placement across a two-switch fabric (25%% selective) --\n")
	fmt.Fprintf(&b, "trunk bytes: %d with the filter on the storage-side switch, %d host-side (%.1fx saved)\n",
		pl.StorageSide, pl.HostSide, float64(pl.HostSide)/float64(pl.StorageSide))

	tl := UtilTimeline(env)
	fmt.Fprintf(&b, "-- switch CPU utilization over time (6-cycle/byte forward) --\n")
	for i := 0; i < len(tl.X); i += 8 {
		fmt.Fprintf(&b, "t=%.1fms util=%.2f\n", tl.X[i]*1000, tl.Y[i])
	}

	fmt.Fprintf(&b, "-- switch CPU clock (8-cycle/byte filter) --\n")
	for _, pt := range CPUClock(env, []int{250, 500, 1000}) {
		fmt.Fprintf(&b, "clock=%-4dMHz %.1f MB/s\n", pt.X, pt.Bytes/1e6)
	}
	return b.String()
}

// UtilTimeline runs a compute-heavy forwarding stream and samples the
// switch CPU's cumulative utilization every 500 us — the time-resolved
// view behind the paper's average-utilization bars.
func UtilTimeline(env apps.Env) stats.Series {
	eng := sim.NewEngine()
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	c := cluster.NewIOCluster(eng, ccfg)
	env.Observe(c)
	const total = 4 << 20
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
	sw := c.Switch(0)
	done := sim.NewLatch()
	streamHandler(sw, 1, 0x0010_0000, total, 6, c.Host(1).ID(), 1, 1, done)
	c.Start()

	util := stats.Series{Name: "switch-util(t)"}
	sampler := sim.StartSampler(eng, 500*sim.Microsecond, func() {
		b := sw.CPU(0).Timing().Breakdown()
		now := eng.Now()
		util.X = append(util.X, now.Seconds())
		util.Y = append(util.Y, float64(b.Busy+b.Stall)/float64(now))
	})
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "f", 0, total,
			sw.ID(), 0x0010_0000, san.Data, 0, 0, 0x6700)
		h.WaitRead(p, tok)
		done.Wait(p)
		sampler.Stop()
	})
	eng.Spawn("sink", func(p *sim.Proc) {
		var got int64
		for got < total {
			got += c.Host(1).RecvAny(p).Size
		}
	})
	eng.Run()
	c.Shutdown()
	return util
}

// PlacementResult compares filter placement across a two-switch fabric.
type PlacementResult struct {
	// TrunkBytes is the traffic crossing the inter-switch trunk when the
	// 25%-selective filter runs on the storage-side switch versus the
	// host-side switch.
	StorageSide, HostSide int64
}

// FilterPlacement quantifies the paper's placement argument: an active
// switch near the data filters before the fabric, one near the host does
// not. Both runs stream the same 4 MB table through a 25% filter; only the
// handler's switch differs.
func FilterPlacement(env apps.Env) PlacementResult {
	run := func(onStorageSide bool) int64 {
		eng := sim.NewEngine()
		cfg := cluster.DefaultIOClusterConfig()
		c := cluster.NewDualIOCluster(eng, cfg)
		env.Observe(c)
		const total = 4 << 20
		c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
		swH, swS := c.Switch(0), c.Switch(1)
		target := swH
		if onStorageSide {
			target = swS
		}
		done := sim.NewLatch()
		// Keep 1 byte in 4 (25% selectivity), forwarding to the host.
		streamHandler(target, 1, 0x0010_0000, total, 2, c.Host(0).ID(), 1, 4, done)
		c.Start()

		// Measure the trunk (host-side switch's last port input link).
		trunk := swH.Port(swH.Config().Ports - 1).In

		eng.Spawn("app", func(p *sim.Proc) {
			h := c.Host(0)
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: target.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
				Size: 32,
			}, 0)
			tok := h.IssueReadTo(p, c.Store(0).ID(), "f", 0, total,
				target.ID(), 0x0010_0000, san.Data, 0, 0, 0x6900)
			h.WaitRead(p, tok)
			done.Wait(p)
		})
		eng.Spawn("sink", func(p *sim.Proc) {
			var got int64
			for got < total/4 {
				got += c.Host(0).RecvAny(p).Size
			}
		})
		eng.Run()
		bytes := trunk.Stats().Bytes
		c.Shutdown()
		return bytes
	}
	return PlacementResult{StorageSide: run(true), HostSide: run(false)}
}

// RequestSize sweeps the active-case disk request size: the host pays
// 30 us per request, so large mapped requests are what push active host
// utilization toward the paper's "close to 0" while the switch's credits
// pace the stream regardless.
func RequestSize(env apps.Env, sizes []int64) []ThroughputPoint {
	var out []ThroughputPoint
	for _, chunk := range sizes {
		eng := sim.NewEngine()
		ccfg := cluster.DefaultIOClusterConfig()
		c := cluster.NewIOCluster(eng, ccfg)
		env.Observe(c)
		const total = 8 << 20
		c.Store(0).AddFile(&iodev.File{Name: "f", Size: total})
		sw := c.Switch(0)
		done := sim.NewLatch()
		streamHandler(sw, 1, 0x0010_0000, total, 4, san.NoNode, 0, 0, done)
		c.Start()
		h := c.Host(0)
		eng.Spawn("app", func(p *sim.Proc) {
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0},
				Size: 32,
			}, 0)
			var pending []*host.ReadToken
			next := int64(0)
			issue := func() {
				n := total - next
				if n <= 0 {
					return
				}
				if n > chunk {
					n = chunk
				}
				pending = append(pending, h.IssueReadTo(p, c.Store(0).ID(), "f", next, n,
					sw.ID(), 0x0010_0000+next, san.Data, 0, 0, 0x6A00))
				next += n
			}
			issue()
			issue()
			for len(pending) > 0 {
				h.WaitRead(p, pending[0])
				pending = pending[1:]
				issue()
			}
			done.Wait(p)
		})
		end := eng.Run()
		b := h.CPU().Breakdown()
		util := float64(b.Busy+b.Stall) / float64(end)
		c.Shutdown()
		// X carries the request size in KB; Bytes carries host utilization
		// scaled by 1e6 so the ThroughputPoint shape is reusable.
		out = append(out, ThroughputPoint{X: int(chunk / 1024), Bytes: util * 1e6})
	}
	return out
}

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

const (
	// handlerID and streamBase are where each study registers its handler
	// and maps the disk stream in the handler's address space.
	handlerID  = 1
	streamBase = 0x0010_0000
)

// prepare observes c with env and stores the size-byte file, "f", that
// the study's handler streams.
func prepare(env apps.Env, c *cluster.Cluster, size int64) *cluster.Cluster {
	env.Observe(c)
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: size})
	return c
}

// invoke is a study's host program, the host side of the benchmarks'
// active configurations: h invokes the handler on sw with a 32-byte active
// message, then apps.StreamToSwitch streams the file [0, size) to sw in
// chunk-byte reads, outstanding at a time, on flow.
func invoke(p *sim.Proc, c *cluster.Cluster, h *host.Host, sw san.NodeID,
	size, chunk int64, outstanding int, flow int64) {
	h.SendMessage(p, &san.Message{
		Hdr:  san.Header{Dst: sw, Type: san.ActiveMsg, HandlerID: handlerID, Addr: 0},
		Size: 32,
	}, 0)
	apps.StreamToSwitch(p, h, c.Store(0).ID(), "f", size, chunk, sw, streamBase, flow, outstanding)
}

// drain receives at h until n bytes have arrived.
func drain(p *sim.Proc, h *host.Host, n int64) {
	for got := int64(0); got < n; {
		got += h.RecvAny(p).Size
	}
}

// streamHandler registers a handler on sw that consumes the total-byte
// stream, charging cycPerByte cycles a byte, and, when fwdDst is a node,
// forwards 1 byte in keep to it in messages of at least 32 KB. The
// returned latch opens when the handler finishes.
func streamHandler(sw *aswitch.ActiveSwitch, total, cycPerByte int64,
	fwdDst san.NodeID, keep int64) *sim.Latch {
	done := sim.NewLatch()
	sw.Register(handlerID, "ablation-stream", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		var kept int64
		forward := func() {
			x.Send(aswitch.SendSpec{
				Dst: fwdDst, Type: san.Data, Addr: 0x0300_0000,
				Size: kept, Flow: 0x7100,
			})
			kept = 0
		}
		for cursor := int64(streamBase); cursor < streamBase+total; {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			x.Compute(cycPerByte * b.Size())
			if fwdDst != san.NoNode {
				kept += b.Size() / keep
				if kept >= 32*1024 {
					forward()
				}
			}
			cursor = b.End()
			x.Deallocate(cursor)
		}
		if kept > 0 {
			forward()
		}
		done.Open()
	})
	return done
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
		const bulk = 8 << 20
		const streamLen = 8 << 20
		const probes = 32
		ccfg := cluster.DefaultIOClusterConfig()
		ccfg.Hosts = 3
		c := prepare(env, cluster.NewIOCluster(sim.NewEngine(), ccfg), streamLen)
		sw := c.Switch(0)
		if active {
			streamHandler(sw, streamLen, 8, san.NoNode, 0)
		}
		c.Start()

		h0, h1 := c.Host(0), c.Host(1)
		var thr float64
		var latSum sim.Time

		// Non-active workload: bulk stream + spaced latency probes.
		c.Eng.Spawn("bulk", func(p *sim.Proc) {
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
			for i := 0; i < probes; i++ {
				p.Sleep(20 * sim.Microsecond)
				sent := p.Now()
				h0.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: h1.ID(), Type: san.Data, Addr: 0x2000, Flow: 0x200},
					Size: 512,
				}, 0)
				h0.RecvFlow(p, h1.ID(), 0x300)
				latSum += p.Now() - sent
			}
		})
		c.Eng.Spawn("sink", func(p *sim.Proc) {
			drain(p, h1, bulk)
			for i := 0; i < probes; i++ {
				h1.RecvFlow(p, h0.ID(), 0x200)
				h1.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: h0.ID(), Type: san.Control, Flow: 0x300},
					Size: 16,
				}, 0)
			}
		})
		if active {
			// Background active stream: disk -> switch handler, one read
			// of the whole file, so the handler stays saturated the whole
			// run.
			c.Eng.Spawn("bg", func(p *sim.Proc) {
				invoke(p, c, c.Host(2), sw.ID(), streamLen, streamLen, 1, 0x6100)
			})
		}
		c.Run()
		c.Shutdown()
		return thr, latSum / probes
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

// forwardRun streams 4 MB disk -> handler -> host 1 on a switch with the
// given configuration, the handler charging cycPerByte cycles a byte, and
// returns the achieved throughput.
func forwardRun(env apps.Env, swCfg aswitch.Config, cycPerByte int64) float64 {
	const total = 4 << 20
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	ccfg.Switch = swCfg
	c := prepare(env, cluster.NewIOCluster(sim.NewEngine(), ccfg), total)
	sw := c.Switch(0)
	done := streamHandler(sw, total, cycPerByte, c.Host(1).ID(), 1)
	c.Start()
	var elapsed sim.Time
	c.Eng.Spawn("app", func(p *sim.Proc) {
		invoke(p, c, c.Host(0), sw.ID(), total, total, 1, 0x6200)
		done.Wait(p)
		elapsed = p.Now()
	})
	c.Eng.Spawn("sink", func(p *sim.Proc) { drain(p, c.Host(1), total) })
	c.Run()
	c.Shutdown()
	return float64(total) / elapsed.Seconds()
}

// sweepSwitch runs the forwarding stream once per x, on the default switch
// with set(&cfg, x) applied, at cycPerByte handler cycles a byte.
func sweepSwitch(env apps.Env, xs []int, cycPerByte int64,
	set func(cfg *aswitch.Config, x int)) []ThroughputPoint {
	out := make([]ThroughputPoint, len(xs))
	for i, x := range xs {
		cfg := aswitch.DefaultConfig(8)
		set(&cfg, x)
		out[i] = ThroughputPoint{X: x, Bytes: forwardRun(env, cfg, cycPerByte)}
	}
	return out
}

// BufferCount sweeps the data-buffer pool size for a forwarding stream.
func BufferCount(env apps.Env, counts []int) []ThroughputPoint {
	return sweepSwitch(env, counts, 2, func(cfg *aswitch.Config, n int) { cfg.NumBuffers = n })
}

// OutReserve sweeps the send-unit reservation for a send-heavy handler.
func OutReserve(env apps.Env, reserves []int) []ThroughputPoint {
	return sweepSwitch(env, reserves, 2, func(cfg *aswitch.Config, n int) { cfg.OutReserve = n })
}

// CPUClock sweeps the switch processor frequency (MHz) for a compute-heavy
// filter (8 cycles/byte).
func CPUClock(env apps.Env, mhz []int) []ThroughputPoint {
	return sweepSwitch(env, mhz, 8, func(cfg *aswitch.Config, f int) {
		cfg.CPUClock = sim.Clock{Period: sim.Time(1_000_000/f) * sim.Picosecond}
	})
}

// ValidBitGranularity returns one-message pipeline latency with fine
// (32-byte) and coarse (whole-packet) valid bits: the time from invocation
// until a handler has touched the head of every packet of a 64 KB message.
func ValidBitGranularity(env apps.Env) (fine, coarse sim.Time) {
	run := func(lineBytes int64) sim.Time {
		const total = 64 * 1024
		ccfg := cluster.DefaultIOClusterConfig()
		ccfg.Switch.ValidLineBytes = lineBytes
		c := prepare(env, cluster.NewIOCluster(sim.NewEngine(), ccfg), total)
		sw := c.Switch(0)
		var finished sim.Time
		sw.Register(handlerID, "peek", func(x *aswitch.Ctx) {
			x.ReleaseArgs()
			for cursor := int64(streamBase); cursor < streamBase+total; {
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
		c.Eng.Spawn("app", func(p *sim.Proc) {
			invoke(p, c, c.Host(0), sw.ID(), total, total, 1, 0x6300)
		})
		c.Run()
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
	const total = 4 << 20
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	c := prepare(env, cluster.NewIOCluster(sim.NewEngine(), ccfg), total)
	sw := c.Switch(0)
	done := streamHandler(sw, total, 6, c.Host(1).ID(), 1)
	c.Start()

	util := stats.Series{Name: "switch-util(t)"}
	sampler := sim.StartSampler(c.Eng, 500*sim.Microsecond, func() {
		b := sw.CPU(0).Timing().Breakdown()
		now := c.Eng.Now()
		util.X = append(util.X, now.Seconds())
		util.Y = append(util.Y, float64(b.Busy+b.Stall)/float64(now))
	})
	c.Eng.Spawn("app", func(p *sim.Proc) {
		invoke(p, c, c.Host(0), sw.ID(), total, total, 1, 0x6700)
		done.Wait(p)
		sampler.Stop()
	})
	c.Eng.Spawn("sink", func(p *sim.Proc) { drain(p, c.Host(1), total) })
	c.Run()
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
		const total = 4 << 20
		c := prepare(env, cluster.NewDualIOCluster(sim.NewEngine(), cluster.DefaultIOClusterConfig()), total)
		swH, swS := c.Switch(0), c.Switch(1)
		target := swH
		if onStorageSide {
			target = swS
		}
		// Keep 1 byte in 4 (25% selectivity), forwarding to the host.
		streamHandler(target, total, 2, c.Host(0).ID(), 4)
		c.Start()

		// Measure the trunk (host-side switch's last port input link).
		trunk := swH.Port(swH.Config().Ports - 1).In

		c.Eng.Spawn("app", func(p *sim.Proc) {
			invoke(p, c, c.Host(0), target.ID(), total, total, 1, 0x6900)
		})
		c.Eng.Spawn("sink", func(p *sim.Proc) { drain(p, c.Host(0), total/4) })
		c.Run()
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
		const total = 8 << 20
		c := prepare(env, cluster.NewIOCluster(sim.NewEngine(), cluster.DefaultIOClusterConfig()), total)
		sw := c.Switch(0)
		streamHandler(sw, total, 4, san.NoNode, 0)
		c.Start()
		h := c.Host(0)
		c.Eng.Spawn("app", func(p *sim.Proc) {
			invoke(p, c, h, sw.ID(), total, chunk, 2, 0x6A00)
		})
		end := c.Run()
		b := h.CPU().Breakdown()
		util := float64(b.Busy+b.Stall) / float64(end)
		c.Shutdown()
		// X carries the request size in KB; Bytes carries host utilization
		// scaled by 1e6 so the ThroughputPoint shape is reusable.
		out = append(out, ThroughputPoint{X: int(chunk / 1024), Bytes: util * 1e6})
	}
	return out
}

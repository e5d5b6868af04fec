package metrics

import (
	"activesan/internal/cluster"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// DefaultTimelineInterval is the sampling period for cluster timelines:
// fine enough for a few hundred points across the golden-scale workloads.
const DefaultTimelineInterval = 250 * sim.Microsecond

// maxTimelineSamples bounds each timeline so very long runs (scale 1) keep
// snapshots a fixed size. A timeline reaching the cap is decimated: every
// other sample is dropped and the interval doubles, so sampling covers the
// whole run at progressively coarser resolution instead of silently ending
// at the cap.
const maxTimelineSamples = 512

// Timelines samples cluster-wide gauges at a fixed simulated interval
// while a workload runs:
//
//	timeline/link_util    mean link utilization over the last interval
//	timeline/queue_depth  packets sitting in switch output queues
//	timeline/io_mbps      NIC bytes moved in the last interval, MB/s
//
// Start them after cluster.Start, Stop them the moment the workload
// finishes (a live sampler keeps the event queue non-empty), then fold the
// series into a snapshot with Into.
type Timelines struct {
	samplers map[string]*sim.Sampler
}

// StartTimelines begins sampling the standard gauges every interval. The
// cluster must run on one engine: a sampler is a process on its engine, so
// on a partitioned cluster it would run on rank 0 alone and read the other
// partitions mid-window.
func StartTimelines(c *cluster.Cluster, interval sim.Time) *Timelines {
	if c.Group != nil {
		panic("metrics: timelines need a single-engine cluster")
	}
	t := &Timelines{samplers: make(map[string]*sim.Sampler)}

	var links []*san.Link
	for _, sw := range c.Switches {
		for i := 0; i < sw.Config().Ports; i++ {
			port := sw.Port(i)
			if port.In != nil {
				links = append(links, port.In)
			}
			if port.Out != nil {
				links = append(links, port.Out)
			}
		}
	}
	prevBusy := sim.Time(0)
	t.start(c, "timeline/link_util", interval, func(iv sim.Time) float64 {
		total := sim.Time(0)
		for _, l := range links {
			total += l.BusyTime()
		}
		d := total - prevBusy
		prevBusy = total
		if len(links) == 0 {
			return 0
		}
		return float64(d) / (float64(iv) * float64(len(links)))
	})

	t.start(c, "timeline/queue_depth", interval, func(sim.Time) float64 {
		n := 0
		for _, sw := range c.Switches {
			n += sw.QueuedPackets()
		}
		return float64(n)
	})

	prevBytes := int64(0)
	t.start(c, "timeline/io_mbps", interval, func(iv sim.Time) float64 {
		total := int64(0)
		for _, h := range c.Hosts {
			total += h.Traffic()
		}
		d := total - prevBytes
		prevBytes = total
		return float64(d) / iv.Seconds() / 1e6
	})

	// Fault timelines exist only when a fault plan is armed, so zero-fault
	// snapshots keep exactly the three standard series.
	if fc := c.FaultCounts; fc != nil {
		t.start(c, "timeline/fault_injected", interval, func(sim.Time) float64 {
			injected, _ := fc()
			return float64(injected)
		})
		t.start(c, "timeline/retry_recovered", interval, func(sim.Time) float64 {
			_, recovered := fc()
			return float64(recovered)
		})
	}
	return t
}

// start wires one sampled gauge. fn receives the interval that elapsed
// since the previous sample — the rate-series denominator — because
// decimation doubles it mid-run: once the series would exceed
// maxTimelineSamples, it is decimated in place (2x coarser, same span) and
// sampling continues at the doubled interval instead of stopping.
func (t *Timelines) start(c *cluster.Cluster, name string, interval sim.Time, fn func(iv sim.Time) float64) {
	var s *sim.Sampler
	s = sim.StartSampler(c.Eng, interval, func() float64 {
		// The value first (its window was covered by the current interval),
		// then the decimation, then the sampler appends the pair — which
		// lands on the doubled grid.
		v := fn(s.Interval())
		if s.N() >= maxTimelineSamples-1 {
			s.Decimate()
		}
		return v
	})
	t.samplers[name] = s
}

// Stop ends every timeline immediately.
func (t *Timelines) Stop() {
	for _, s := range t.samplers {
		s.Stop()
	}
}

// Into folds the sampled series into a snapshot.
func (t *Timelines) Into(s *Snapshot) {
	for name, smp := range t.samplers {
		s.SetSeries(name, smp.X, smp.Y)
	}
}

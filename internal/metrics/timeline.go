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
// One sampler reads every gauge at the same instant, so the series share
// their sample times. Start them after cluster.Start, Stop them the moment
// the workload finishes (a live sampler keeps the event queue non-empty),
// then fold the series into a snapshot with Into.
type Timelines struct {
	eng    *sim.Engine
	smp    *sim.Sampler
	gauges []gauge
	x      []float64 // sample times, seconds
}

// gauge is one sampled series. read receives the interval that elapsed
// since the previous sample — the rate-series denominator — because
// decimation doubles it mid-run.
type gauge struct {
	name string
	read func(iv sim.Time) float64
	y    []float64
}

// StartTimelines begins sampling the standard gauges every interval. The
// cluster must run on one engine: the sampler's events run on its engine,
// so on a partitioned cluster they would run on rank 0 alone and read the
// other partitions mid-window.
func StartTimelines(c *cluster.Cluster, interval sim.Time) *Timelines {
	if c.Group != nil {
		panic("metrics: timelines need a single-engine cluster")
	}
	t := &Timelines{eng: c.Eng}

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
	t.add("timeline/link_util", func(iv sim.Time) float64 {
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

	t.add("timeline/queue_depth", func(sim.Time) float64 {
		n := 0
		for _, sw := range c.Switches {
			n += sw.QueuedPackets()
		}
		return float64(n)
	})

	prevBytes := int64(0)
	t.add("timeline/io_mbps", func(iv sim.Time) float64 {
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
		t.add("timeline/fault_injected", func(sim.Time) float64 {
			injected, _ := fc()
			return float64(injected)
		})
		t.add("timeline/retry_recovered", func(sim.Time) float64 {
			_, recovered := fc()
			return float64(recovered)
		})
	}
	t.smp = sim.StartSampler(c.Eng, interval, t.sample)
	return t
}

// add registers a gauge; read returns its value at each sample.
func (t *Timelines) add(name string, read func(iv sim.Time) float64) {
	t.gauges = append(t.gauges, gauge{name: name, read: read})
}

// sample appends one sample of every gauge. Once the series would exceed
// maxTimelineSamples they are first decimated in place (2x coarser, same
// span) and sampling continues at the doubled interval instead of
// stopping: the kept samples, and this one, land on the doubled grid.
func (t *Timelines) sample() {
	iv := t.smp.Interval()
	if len(t.x) >= maxTimelineSamples-1 {
		t.x = decimate(t.x)
		for i := range t.gauges {
			t.gauges[i].y = decimate(t.gauges[i].y)
		}
		t.smp.SetInterval(2 * iv)
	}
	t.x = append(t.x, t.eng.Now().Seconds())
	for i := range t.gauges {
		g := &t.gauges[i]
		g.y = append(g.y, g.read(iv))
	}
}

// decimate halves a series in place, keeping the odd-indexed samples (at
// 2dt, 4dt, ...), which lie on the doubled grid: a timeline decimated k
// times looks as if it had been sampled at 2^k times the original interval
// all along.
func decimate(s []float64) []float64 {
	keep := 0
	for i := 1; i < len(s); i += 2 {
		s[keep] = s[i]
		keep++
	}
	return s[:keep]
}

// Stop ends every timeline: no sample is taken after it.
func (t *Timelines) Stop() { t.smp.Stop() }

// Into folds the sampled series into a snapshot.
func (t *Timelines) Into(s *Snapshot) {
	for _, g := range t.gauges {
		s.SetSeries(g.name, t.x, g.y)
	}
}

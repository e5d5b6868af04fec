// Package stats collects and formats the paper's three headline metrics —
// execution time (normalized to the "normal" configuration), host processor
// utilization (1 - idle)/time, and host I/O traffic — plus the CPU-busy /
// cache-stall / idle execution-time breakdowns of the even-numbered figures.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"activesan/internal/metrics"
	"activesan/internal/sim"
)

// Run is the outcome of one benchmark configuration.
type Run struct {
	// Config is the paper's configuration label: "normal", "normal+pref",
	// "active", "active+pref".
	Config string
	// Time is the end-to-end execution time.
	Time sim.Time
	// HostBusy/HostStall aggregate every participating host CPU.
	HostBusy  sim.Time
	HostStall sim.Time
	// SwitchBusy/SwitchStall aggregate every switch CPU (zero for normal
	// configurations).
	SwitchBusy  sim.Time
	SwitchStall sim.Time
	// Traffic is total bytes in/out of all hosts.
	Traffic int64
	// Hosts is the number of participating hosts (for per-host averages).
	Hosts int
	// Extra carries benchmark-specific results (e.g. matches found) for
	// correctness reporting.
	Extra map[string]any
	// Metrics is the full secondary-metric snapshot of the run's cluster
	// (per-component counters, derived utilizations, timelines). Present
	// for cluster-based runs; golden files pin it alongside the headline
	// numbers.
	Metrics *metrics.Snapshot `json:",omitempty"`
}

// HostUtil returns the paper's host utilization: (1 - idle)/time averaged
// over hosts, i.e. (busy+stall)/(hosts*time).
func (r Run) HostUtil() float64 {
	if r.Time == 0 || r.Hosts == 0 {
		return 0
	}
	return float64(r.HostBusy+r.HostStall) / (float64(r.Hosts) * float64(r.Time))
}

// SwitchUtil returns the switch CPU utilization over the run.
func (r Run) SwitchUtil() float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.SwitchBusy+r.SwitchStall) / float64(r.Time)
}

// Bar is one stacked column of an execution-time breakdown figure, e.g.
// "n-HP" (normal, host processor) or "a+p-SP" (active+pref, switch CPU).
type Bar struct {
	Label string
	Busy  sim.Time
	Stall sim.Time
	Idle  sim.Time
}

// Total returns the bar's height.
func (b Bar) Total() sim.Time { return b.Busy + b.Stall + b.Idle }

// BreakdownBar derives a bar from a run's aggregates for either the host
// ("HP") or switch ("SP") processor, with idle as the remainder of the run.
func BreakdownBar(label string, busy, stall, window sim.Time, n int) Bar {
	if n < 1 {
		n = 1
	}
	busy /= sim.Time(n)
	stall /= sim.Time(n)
	idle := window - busy - stall
	if idle < 0 {
		idle = 0
	}
	return Bar{Label: label, Busy: busy, Stall: stall, Idle: idle}
}

// Result is one experiment's full output: the four-configuration run set
// and the matching breakdown bars, ready to print.
type Result struct {
	ID    string // experiment id, e.g. "fig3"
	Title string
	Runs  []Run
	Bars  []Bar
	// Series carries X/Y data for the sweep figures (15-17).
	Series []Series
	// Notes records correctness checks ("16 lines matched") and shape
	// observations.
	Notes []string
}

// GoodputMBps converts a run's end-to-end time into application goodput for
// a workload that delivered payloadBytes of useful data — the reliability
// sweeps' headline metric (retransmitted bytes are link traffic, not
// goodput).
func (r Run) GoodputMBps(payloadBytes int64) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(payloadBytes) / r.Time.Seconds() / 1e6
}

// Series is one line of a sweep figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Baseline returns the run labelled "normal" (or the first run).
func (res *Result) Baseline() Run {
	for _, r := range res.Runs {
		if r.Config == "normal" {
			return r
		}
	}
	if len(res.Runs) > 0 {
		return res.Runs[0]
	}
	return Run{}
}

// Run returns the run with the given config label and whether it exists.
func (res *Result) Run(config string) (Run, bool) {
	for _, r := range res.Runs {
		if r.Config == config {
			return r, true
		}
	}
	return Run{}, false
}

// Speedup returns baseline time / config time.
func (res *Result) Speedup(config string) float64 {
	r, ok := res.Run(config)
	base := res.Baseline()
	if !ok || r.Time == 0 || base.Time == 0 {
		return 0
	}
	return float64(base.Time) / float64(r.Time)
}

// Format renders the result as the text equivalent of the paper's figures.
func (res *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", res.ID, res.Title)
	if len(res.Runs) > 0 {
		base := res.Baseline()
		fmt.Fprintf(&b, "%-14s %12s %10s %10s %12s %10s %12s\n",
			"config", "time", "norm.time", "host-util", "traffic(B)", "norm.traf", "switch-util")
		for _, r := range res.Runs {
			nt, tr := 0.0, 0.0
			if base.Time > 0 {
				nt = float64(r.Time) / float64(base.Time)
			}
			if base.Traffic > 0 {
				tr = float64(r.Traffic) / float64(base.Traffic)
			}
			fmt.Fprintf(&b, "%-14s %12s %10.3f %10.3f %12d %10.3f %12.3f\n",
				r.Config, r.Time, nt, r.HostUtil(), r.Traffic, tr, r.SwitchUtil())
		}
	}
	if len(res.Bars) > 0 {
		fmt.Fprintf(&b, "-- execution time breakdown --\n")
		fmt.Fprintf(&b, "%-10s %12s %12s %12s %8s %8s %8s\n",
			"bar", "busy", "stall", "idle", "%busy", "%stall", "%idle")
		for _, bar := range res.Bars {
			t := bar.Total()
			pct := func(x sim.Time) float64 {
				if t == 0 {
					return 0
				}
				return 100 * float64(x) / float64(t)
			}
			fmt.Fprintf(&b, "%-10s %12s %12s %12s %8.1f %8.1f %8.1f\n",
				bar.Label, bar.Busy, bar.Stall, bar.Idle,
				pct(bar.Busy), pct(bar.Stall), pct(bar.Idle))
		}
	}
	hasMetrics := false
	for _, r := range res.Runs {
		if r.Metrics != nil {
			hasMetrics = true
			break
		}
	}
	if hasMetrics {
		fmt.Fprintf(&b, "-- secondary metrics --\n")
		for _, r := range res.Runs {
			if r.Metrics == nil {
				continue
			}
			summary := r.Metrics.Summary()
			if len(summary) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-14s %s\n", r.Config, strings.Join(summary, "; "))
		}
	}
	for _, s := range res.Series {
		fmt.Fprintf(&b, "-- series %s --\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "  x=%-8g y=%g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// SpeedupSeries converts matched normal/active series into a speedup curve
// (normalY / activeY pointwise over shared X values).
func SpeedupSeries(name string, normal, active Series) Series {
	idx := make(map[float64]float64, len(active.X))
	for i := range active.X {
		idx[active.X[i]] = active.Y[i]
	}
	var out Series
	out.Name = name
	for i := range normal.X {
		if ay, ok := idx[normal.X[i]]; ok && ay > 0 {
			out.X = append(out.X, normal.X[i])
			out.Y = append(out.Y, normal.Y[i]/ay)
		}
	}
	return out
}

// MaxY returns the largest Y in the series (0 if empty).
func (s Series) MaxY() float64 {
	best := 0.0
	for _, y := range s.Y {
		if y > best {
			best = y
		}
	}
	return best
}

// SortedKeys returns map keys in sorted order, for deterministic notes.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package metrics is the unified observability registry for the simulated
// cluster. Every hardware substrate (caches, TLBs, NICs, links, switches,
// active-switch CPUs, RDRAM channels, disks) already keeps private
// counters; this package walks a finished cluster and snapshots all of
// them into one flat, "/"-separated namespace —
//
//	h0/l2/misses            sw0/port1/out/bytes
//	h0/mem/bus_util         sw0/handler/mpeg-filter/invocations
//	d0/disk/seeks           sw0/cpu0/atb/hit_rate
//
// — plus derived gauges (utilizations over the workload's elapsed time,
// miss and hit rates) and fixed-interval time-series sampled while the
// workload runs. Snapshots are embedded in stats.Run values, so the golden
// result suite pins every secondary metric, and sandiff reports drift in
// any of them.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one fixed-interval timeline: X holds sample times in seconds,
// Y the sampled values.
type Series struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
}

// Snapshot is one harvest of the whole cluster. Values is the flat metric
// tree; Series holds the timelines. Both marshal deterministically
// (encoding/json sorts map keys), which is what lets golden files pin a
// snapshot byte-for-byte.
type Snapshot struct {
	Values map[string]float64 `json:"values"`
	Series map[string]Series  `json:"series,omitempty"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{Values: make(map[string]float64)}
}

// Set records name = v.
func (s *Snapshot) Set(name string, v float64) { s.Values[name] = v }

// SetInt records an integer counter.
func (s *Snapshot) SetInt(name string, v int64) { s.Values[name] = float64(v) }

// Get returns the value of name, or 0 if absent.
func (s *Snapshot) Get(name string) float64 { return s.Values[name] }

// SetSeries attaches a timeline.
func (s *Snapshot) SetSeries(name string, x, y []float64) {
	if len(x) == 0 {
		return
	}
	if s.Series == nil {
		s.Series = make(map[string]Series)
	}
	s.Series[name] = Series{X: x, Y: y}
}

// Names returns every metric name in sorted order.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Values))
	for n := range s.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ratio returns num/den, or 0 when den is 0 — the convention every derived
// rate in the tree follows.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxWith scans values whose name contains infix ("" matches all) and has
// the given suffix, returning the largest with its name.
func (s *Snapshot) maxWith(infix, suffix string) (name string, v float64, ok bool) {
	for _, n := range s.Names() {
		if strings.Contains(n, infix) && strings.HasSuffix(n, suffix) {
			if !ok || s.Values[n] > v {
				name, v, ok = n, s.Values[n], true
			}
		}
	}
	return name, v, ok
}

// sumWith totals values whose name contains infix and ends with suffix.
func (s *Snapshot) sumWith(infix, suffix string) float64 {
	total := 0.0
	for n, v := range s.Values {
		if strings.Contains(n, infix) && strings.HasSuffix(n, suffix) {
			total += v
		}
	}
	return total
}

// Summary distills the snapshot into a handful of headline lines for the
// figure/table output: the busiest link, aggregate cache and ATB behaviour,
// memory-bus pressure, and switch-queue extremes.
func (s *Snapshot) Summary() []string {
	var out []string
	if name, v, ok := s.maxWith("/port", "/util"); ok {
		out = append(out, fmt.Sprintf("link util max %.1f%% (%s)", 100*v, strings.TrimSuffix(name, "/util")))
	}
	if acc := s.sumWith("/l2/", "/accesses"); acc > 0 {
		out = append(out, fmt.Sprintf("L2 miss %.2f%%", 100*s.sumWith("/l2/", "/misses")/acc))
	}
	if hits, misses := s.sumWith("/atb/", "/hits"), s.sumWith("/atb/", "/misses"); hits+misses > 0 {
		out = append(out, fmt.Sprintf("ATB hit %.2f%%", 100*hits/(hits+misses)))
	}
	if name, v, ok := s.maxWith("", "/mem/bus_util"); ok {
		out = append(out, fmt.Sprintf("mem bus util max %.1f%% (%s)", 100*v, strings.TrimSuffix(name, "/mem/bus_util")))
	}
	if name, v, ok := s.maxWith("", "/max_queue_depth"); ok && v > 0 {
		out = append(out, fmt.Sprintf("switch queue max %d (%s)", int64(v), strings.TrimSuffix(name, "/max_queue_depth")))
	}
	return out
}

// Drift is one metric whose value moved by more than a threshold between
// two snapshots.
type Drift struct {
	Name     string
	Before   float64
	After    float64
	DeltaPct float64
}

func (d Drift) String() string {
	return fmt.Sprintf("%s %g -> %g (%+.2f%%)", d.Name, d.Before, d.After, d.DeltaPct)
}

// Diff compares two snapshots and returns every shared metric whose
// relative change exceeds thresholdPct, largest drift first (ties broken
// by name for determinism). Metrics present on only one side are ignored —
// topology changes show up elsewhere.
func Diff(before, after *Snapshot, thresholdPct float64) []Drift {
	if before == nil || after == nil {
		return nil
	}
	var out []Drift
	for name, b := range before.Values {
		a, ok := after.Values[name]
		if !ok || b == 0 {
			continue
		}
		d := 100 * (a - b) / b
		if math.Abs(d) > thresholdPct {
			out = append(out, Drift{Name: name, Before: b, After: a, DeltaPct: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := math.Abs(out[i].DeltaPct), math.Abs(out[j].DeltaPct)
		if di != dj {
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

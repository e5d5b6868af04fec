// Package latsweep decomposes per-hop packet latency for the paper's
// active-vs-passive argument: the same reduce-to-one collective runs on
// k-ary fat trees at several host counts with the telemetry recorder
// armed, and each point reports the end-to-end latency quantiles plus the
// per-packet breakdown into NIC, wire, route, queue, handler and disk
// time. The passive variant pays its path length in host round trips; the
// active variant trades them for handler cycles inside the fabric — this
// sweep turns that path-length argument into a measured figure.
package latsweep

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
	"activesan/internal/telemetry"
)

// Params sizes the sweep.
type Params struct {
	// HostCounts are the swept cluster sizes.
	HostCounts []int
	// Reduce calibrates the collective at every point.
	Reduce collective.Params
	// Env observes each point's cluster (trace sink, strict routes) and
	// gives its recorder the span writer; no fault plan is armed.
	Env apps.Env
}

// DefaultParams sweeps 4 to 64 hosts with the paper's 512-byte vectors.
func DefaultParams() Params {
	return Params{
		HostCounts: []int{4, 8, 16, 32, 64},
		Reduce:     collective.DefaultParams(),
	}
}

// Point is one (hosts, variant) measurement with its telemetry snapshot.
type Point struct {
	Hosts   int
	Latency sim.Time
	Correct bool
	// Packets is how many stamped packets completed; HopPs their total
	// picoseconds per hop kind (summed over packet types).
	Packets int64
	HopPs   [san.NumHopKinds]int64
	// Metrics carries the full telemetry fold: e2e/type/hop histograms,
	// path breakdowns and occupancy watermarks.
	Metrics *metrics.Snapshot
}

// RunPoint measures one variant at one cluster size on the minimal fat
// tree, with a telemetry recorder always attached — latsweep is the
// experiment about telemetry, so it ignores env.Telemetry.
func RunPoint(env apps.Env, hosts int, active bool, prm collective.Params) Point {
	c := cluster.NewFatTreeCluster(sim.NewEngine(), cluster.DefaultFatTreeConfig(hosts))
	env.Observe(c)
	rec := telemetry.NewRecorder(env.Spans)
	rec.Attach(c)
	r := collective.RunOn(c, collective.Reduce, active, hosts, prm)
	snap := metrics.NewSnapshot()
	rec.Into(snap)
	pt := Point{Hosts: hosts, Latency: r.Latency, Correct: r.Correct, Metrics: snap}
	for t := san.Type(0); t <= san.Ack; t++ {
		n, ps := rec.Path(t)
		pt.Packets += n
		for k := range ps {
			pt.HopPs[k] += ps[k]
		}
	}
	return pt
}

// perPacket renders a point's mean per-packet path decomposition.
func (pt Point) perPacket() string {
	if pt.Packets == 0 {
		return "no completed packets"
	}
	s := ""
	for k := san.HopKind(0); k < san.NumHopKinds; k++ {
		if pt.HopPs[k] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%v", k, sim.Time(pt.HopPs[k]/pt.Packets))
	}
	return s
}

// RunAll runs the sweep. The histograms keep exact counts, so the result
// is byte-identical from run to run.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "latsweep",
		Title: "Per-hop latency decomposition: active vs passive reduce",
	}
	type pair struct{ passive, active Point }
	points := make([]pair, len(prm.HostCounts))
	for i, hosts := range prm.HostCounts {
		points[i].passive = RunPoint(prm.Env, hosts, false, prm.Reduce)
		points[i].active = RunPoint(prm.Env, hosts, true, prm.Reduce)
	}

	var passP50, actP50, passP99, actP99 stats.Series
	passP50.Name = "passive e2e p50 (us)"
	actP50.Name = "active e2e p50 (us)"
	passP99.Name = "passive e2e p99 (us)"
	actP99.Name = "active e2e p99 (us)"
	ps2us := func(s *metrics.Snapshot, name string) float64 {
		return s.Get(name) / 1e6 // picoseconds -> microseconds
	}
	for i, p := range prm.HostCounts {
		pp, pa := points[i].passive, points[i].active
		if !pp.Correct || !pa.Correct {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"p=%d: INCORRECT result (passive ok=%v, active ok=%v)", p, pp.Correct, pa.Correct))
		}
		x := float64(p)
		passP50.X = append(passP50.X, x)
		passP50.Y = append(passP50.Y, ps2us(pp.Metrics, "telemetry/e2e/p50"))
		actP50.X = append(actP50.X, x)
		actP50.Y = append(actP50.Y, ps2us(pa.Metrics, "telemetry/e2e/p50"))
		passP99.X = append(passP99.X, x)
		passP99.Y = append(passP99.Y, ps2us(pp.Metrics, "telemetry/e2e/p99"))
		actP99.X = append(actP99.X, x)
		actP99.Y = append(actP99.Y, ps2us(pa.Metrics, "telemetry/e2e/p99"))
		res.Runs = append(res.Runs,
			stats.Run{Config: fmt.Sprintf("passive/p=%d", p), Time: pp.Latency,
				Hosts: p, Metrics: pp.Metrics},
			stats.Run{Config: fmt.Sprintf("active/p=%d", p), Time: pa.Latency,
				Hosts: p, Metrics: pa.Metrics})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"p=%-3d passive per-pkt: %s", p, pp.perPacket()))
		res.Notes = append(res.Notes, fmt.Sprintf(
			"p=%-3d active  per-pkt: %s", p, pa.perPacket()))
	}
	sp := stats.SpeedupSeries("p99 speedup", passP99, actP99)
	res.Series = []stats.Series{passP50, actP50, passP99, actP99, sp}
	res.Notes = append(res.Notes, fmt.Sprintf("max p99 speedup %.2fx", sp.MaxY()))
	return res
}

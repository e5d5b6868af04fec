// Package collsweep measures the in-network collective library (see
// COLLECTIVES.md) the way scalesweep measures the single reduce: an
// allreduce swept over host counts on k-ary fat trees, active (up-tree
// combine + down-tree multicast inside the switches) against passive
// (recursive doubling on the hosts), reporting completion-latency and
// host-I/O-byte curves. A second axis sweeps the key-grouped aggregation
// switch-memory budget at a fixed cluster, exposing the spill cliff: as the
// per-switch key table shrinks, records spill un-aggregated toward the
// root, host I/O grows, and the per-switch hit/spill ledgers — pinned in
// the golden — must balance (hits + spills == ingested) at every point.
package collsweep

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/metrics"
	"activesan/internal/sim"
	"activesan/internal/stats"
	"activesan/internal/telemetry"
)

// Params sizes the sweep.
type Params struct {
	// HostCounts are the swept cluster sizes for the allreduce axis.
	HostCounts []int
	// Env arms each point's cluster (trace sink, strict routes, fault
	// plan, telemetry), and its Topology.Parts selects the engine layout:
	// 0 auto-picks from each point's topology, 1 forces serial, n >= 2
	// forces n partitions. Results are byte-identical whatever the value.
	Env apps.Env
	// Op is the collective swept over HostCounts (allreduce by default;
	// the -collective flag selects others).
	Op collective.Op
	// Coll calibrates the collective at every point.
	Coll collective.Params
	// AggHosts is the fixed cluster size of the budget axis; Budgets the
	// swept per-switch key-table capacities.
	AggHosts int
	Budgets  []int
}

// DefaultParams sweeps 4 to 1024 hosts with the paper's 512-byte vectors
// and the aggregation budget from 1 key to the whole key space.
func DefaultParams() Params {
	return Params{
		HostCounts: []int{4, 8, 16, 32, 64, 256, 1024},
		Env:        apps.Env{Topology: cluster.Topo{Parts: 1}},
		Op:         collective.Allreduce,
		Coll:       collective.DefaultParams(),
		AggHosts:   16,
		Budgets:    []int{1, 2, 4, 8, 16, 32, 64, 128},
	}
}

// Point is one (hosts, variant) allreduce measurement. Metrics is the
// telemetry fold (per-hop latency histograms decomposing the collective),
// present when the env arms telemetry.
type Point struct {
	Hosts     int
	K         int
	Switches  int
	Latency   sim.Time
	HostBytes int64
	Correct   bool
	Metrics   *metrics.Snapshot
}

// BudgetPoint is one key-aggregation measurement at a fixed cluster size.
type BudgetPoint struct {
	Budget    int
	Latency   sim.Time
	HostBytes int64
	Correct   bool
	Hits      int64
	Spills    int64
	Ingested  int64
	Balanced  bool
	PerSwitch []collective.SwitchAgg
	// Metrics carries the per-switch agg_hits/agg_spills/agg_ingested
	// counters (and, with -telemetry armed, the per-hop latency fold).
	Metrics *metrics.Snapshot
}

// newCluster builds one measurement's fat tree with env armed, so -faults
// and -telemetry compose with the sweep exactly as they do with the figure
// experiments.
func newCluster(env apps.Env, hosts int) (*cluster.Cluster, *telemetry.Recorder) {
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), env.Topology.Parts)
	_, rec := env.Arm(c)
	return c, rec
}

// RunPoint measures one collective variant at one cluster size.
func RunPoint(env apps.Env, op collective.Op, hosts int, active bool, prm collective.Params) Point {
	c, rec := newCluster(env, hosts)
	return pointOn(c, rec, op, hosts, active, prm)
}

// pointOn measures one collective variant on c, the fat tree newCluster
// built for the given host count and armed with rec (nil when telemetry is
// off).
func pointOn(c *cluster.Cluster, rec *telemetry.Recorder, op collective.Op, hosts int, active bool, prm collective.Params) Point {
	r := collective.RunOn(c, op, active, hosts, prm)
	pt := Point{
		Hosts:     hosts,
		K:         cluster.DefaultFatTreeConfig(hosts).K,
		Switches:  len(c.Switches),
		Latency:   r.Latency,
		HostBytes: hostBytes(c),
		Correct:   r.Correct,
	}
	if rec != nil {
		pt.Metrics = metrics.NewSnapshot()
		rec.Into(pt.Metrics)
	}
	return pt
}

// RunBudgetPoint measures key-grouped aggregation under one switch-memory
// budget (active), or the host-shuffle reference when active is false.
func RunBudgetPoint(env apps.Env, hosts, budget int, active bool, prm collective.Params) BudgetPoint {
	c, rec := newCluster(env, hosts)
	return budgetPointOn(c, rec, hosts, budget, active, prm)
}

// budgetPointOn measures key-grouped aggregation on c, as pointOn does the
// swept collective.
func budgetPointOn(c *cluster.Cluster, rec *telemetry.Recorder, hosts, budget int, active bool, prm collective.Params) BudgetPoint {
	prm.AggBudget = budget
	r := collective.RunOn(c, collective.KeyAgg, active, hosts, prm)
	pt := BudgetPoint{
		Budget:    budget,
		Latency:   r.Latency,
		HostBytes: hostBytes(c),
		Correct:   r.Correct,
		Hits:      r.AggHits,
		Spills:    r.AggSpills,
		Ingested:  r.AggIngested,
		Balanced:  r.AggBalanced(),
		PerSwitch: r.PerSwitch,
	}
	pt.Metrics = aggSnapshot(pt)
	if rec != nil {
		rec.Into(pt.Metrics)
	}
	return pt
}

func hostBytes(c *cluster.Cluster) int64 {
	var n int64
	for _, h := range c.Hosts {
		n += h.Traffic()
	}
	return n
}

// aggSnapshot renders a budget point's ledgers as a metrics snapshot: the
// totals under collective/, each switch's under <name>/.
func aggSnapshot(pt BudgetPoint) *metrics.Snapshot {
	snap := metrics.NewSnapshot()
	snap.SetInt("collective/agg_hits", pt.Hits)
	snap.SetInt("collective/agg_spills", pt.Spills)
	snap.SetInt("collective/agg_ingested", pt.Ingested)
	for _, s := range pt.PerSwitch {
		snap.SetInt(s.Name+"/agg_hits", s.Hits)
		snap.SetInt(s.Name+"/agg_spills", s.Spills)
		snap.SetInt(s.Name+"/agg_ingested", s.Ingested)
	}
	return snap
}

// RunAll runs every measurement: the allreduce points, the budget points
// and the host-shuffle reference.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "collsweep",
		Title: "In-network collectives: " + prm.Op.String() + " scaling and the aggregation spill cliff",
	}
	type pair struct{ passive, active Point }
	points := make([]pair, len(prm.HostCounts))
	for i, hosts := range prm.HostCounts {
		points[i].passive = RunPoint(prm.Env, prm.Op, hosts, false, prm.Coll)
		points[i].active = RunPoint(prm.Env, prm.Op, hosts, true, prm.Coll)
	}
	budgets := make([]BudgetPoint, len(prm.Budgets))
	for b, budget := range prm.Budgets {
		budgets[b] = RunBudgetPoint(prm.Env, prm.AggHosts, budget, true, prm.Coll)
	}
	// The host-shuffle reference (no switch table).
	aggRef := RunBudgetPoint(prm.Env, prm.AggHosts, 0, false, prm.Coll)

	var passLat, actLat, passBytes, actBytes stats.Series
	passLat.Name = "passive (recursive doubling)"
	actLat.Name = "active (in-switch " + prm.Op.String() + ")"
	passBytes.Name = "passive host bytes"
	actBytes.Name = "active host bytes"
	for i, p := range prm.HostCounts {
		pp, pa := points[i].passive, points[i].active
		if !pp.Correct || !pa.Correct {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"p=%d: INCORRECT result (passive ok=%v, active ok=%v)", p, pp.Correct, pa.Correct))
		}
		x := float64(p)
		passLat.X = append(passLat.X, x)
		passLat.Y = append(passLat.Y, pp.Latency.Micros())
		actLat.X = append(actLat.X, x)
		actLat.Y = append(actLat.Y, pa.Latency.Micros())
		passBytes.X = append(passBytes.X, x)
		passBytes.Y = append(passBytes.Y, float64(pp.HostBytes))
		actBytes.X = append(actBytes.X, x)
		actBytes.Y = append(actBytes.Y, float64(pa.HostBytes))
		res.Notes = append(res.Notes, fmt.Sprintf(
			"p=%-4d k=%d (%d switches): host I/O %d B active vs %d B passive (%.2fx less), latency %v vs %v",
			p, pa.K, pa.Switches, pa.HostBytes, pp.HostBytes,
			float64(pp.HostBytes)/float64(pa.HostBytes), pa.Latency, pp.Latency))
		// With the telemetry recorder armed, each point also carries its
		// per-hop latency decomposition.
		if pp.Metrics != nil && pa.Metrics != nil {
			res.Runs = append(res.Runs,
				stats.Run{Config: fmt.Sprintf("passive/p=%d", p), Time: pp.Latency,
					Traffic: pp.HostBytes, Hosts: p, Metrics: pp.Metrics},
				stats.Run{Config: fmt.Sprintf("active/p=%d", p), Time: pa.Latency,
					Traffic: pa.HostBytes, Hosts: p, Metrics: pa.Metrics})
		}
	}
	sp := stats.SpeedupSeries("speedup", passLat, actLat)

	var spillS, hitS, aggBytes stats.Series
	spillS.Name = "agg spills vs budget"
	hitS.Name = "agg hits vs budget"
	aggBytes.Name = "keyagg host bytes vs budget"
	for i, b := range prm.Budgets {
		pt := budgets[i]
		x := float64(b)
		spillS.X = append(spillS.X, x)
		spillS.Y = append(spillS.Y, float64(pt.Spills))
		hitS.X = append(hitS.X, x)
		hitS.Y = append(hitS.Y, float64(pt.Hits))
		aggBytes.X = append(aggBytes.X, x)
		aggBytes.Y = append(aggBytes.Y, float64(pt.HostBytes))
		state := "balanced"
		if !pt.Balanced {
			state = "UNBALANCED"
		}
		if !pt.Correct {
			state += " INCORRECT"
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"keyagg p=%d budget=%-4d: hits=%-5d spills=%-5d ingested=%-5d (%s), host I/O %d B, latency %v",
			prm.AggHosts, b, pt.Hits, pt.Spills, pt.Ingested, state, pt.HostBytes, pt.Latency))
		res.Runs = append(res.Runs, stats.Run{
			Config:  fmt.Sprintf("keyagg/budget=%d", b),
			Time:    pt.Latency,
			Traffic: pt.HostBytes,
			Hosts:   prm.AggHosts,
			Metrics: pt.Metrics,
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"keyagg p=%d host shuffle reference: host I/O %d B, latency %v (correct=%v)",
		prm.AggHosts, aggRef.HostBytes, aggRef.Latency, aggRef.Correct))
	res.Notes = append(res.Notes, fmt.Sprintf("max %s speedup %.2fx", prm.Op, sp.MaxY()))

	res.Series = []stats.Series{passLat, actLat, passBytes, actBytes, sp, hitS, spillS, aggBytes}
	return res
}

// Package collsweep holds every collective sweep of the registry on one
// point runner. At each host count a sweep measures a collective twice,
// active (combined inside the switches) and passive (the host-only
// reference algorithm, collective.HostAlgorithm), and reports its curves
// over host counts:
//
//   - Sweep is the paper's Figures 15 (Reduce-to-one) and 16 (Distributed
//     Reduce) over 512-byte vectors on up to 128 nodes. The normal case is
//     the minimum-spanning-tree (binomial) algorithm on the hosts, whose
//     latency lower bound is ceil(log2 p)(a+l); the active case sends every
//     vector as an active message to its leaf switch, reduces inside the
//     switch tree (arity N/2 = 8), and delivers the result with latency
//     a + g + ceil(log_{N/2} p) d — speedups up to ~5.6x/5.9x at 128 nodes.
//   - ScaleSweep probes the paper's core claim at scale: on k-ary fat trees
//     (the smallest k holding each point), in-network aggregation cuts host
//     I/O traffic, and the saving grows with the cluster. Not a figure from
//     the paper, which stops at a fixed reduction tree; this is the
//     scale-out extension its Section 7 gestures at.
//   - LatSweep decomposes per-hop packet latency: the same reduce with the
//     telemetry recorder armed, each point broken down per packet into NIC,
//     wire, route, queue, handler and disk time. The passive variant pays
//     its path length in host round trips; the active variant trades them
//     for handler cycles inside the fabric.
//   - RunAll scales any collective of the library (COLLECTIVES.md) on fat
//     trees, and sweeps the key-grouped aggregation switch-memory budget at
//     a fixed cluster, exposing the spill cliff: as the per-switch key table
//     shrinks, records spill un-aggregated toward the root, host I/O grows,
//     and the per-switch hit/spill ledgers — pinned in the golden — must
//     balance (hits + spills == ingested) at every point.
//
// Each sweep sets the topology its clusters use and decides which run
// settings reach them; OBSERVABILITY.md has the resulting table.
package collsweep

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

// Point is one (op, hosts, variant) measurement.
type Point struct {
	Hosts     int
	Switches  int // physical switch count
	Latency   sim.Time
	HostBytes int64 // total bytes crossing host NICs
	Correct   bool
	PerHost   [][]int64 // what each rank holds at completion
	// Key-aggregation ledgers; zero for the other ops.
	Hits      int64
	Spills    int64
	Ingested  int64
	Balanced  bool
	PerSwitch []collective.SwitchAgg
	// With a telemetry recorder armed, Packets is how many stamped packets
	// completed and HopPs their total picoseconds per hop kind (summed over
	// packet types).
	Packets int64
	HopPs   [san.NumHopKinds]int64
	// Metrics carries a key aggregation's ledgers (the totals under
	// collective/, each switch's under <name>/) and then, with a recorder
	// armed, the telemetry fold; nil when there is neither.
	Metrics *metrics.Snapshot
}

// RunPoint measures one variant of op at one cluster size, on the cluster
// Build builds. The sweeps below clear what their clusters do not honour
// before they call it.
func RunPoint(env apps.Env, op collective.Op, hosts int, active bool, prm collective.Params) Point {
	c, rec := Build(env, hosts)
	return pointOn(c, rec, op, hosts, active, prm)
}

// Build builds a point's un-started cluster of the given host count with
// cluster.BuildCollective from env.Topology, and arms it with env: its
// trace sink, strict routes, fault plan and telemetry. It returns the
// telemetry recorder, nil when telemetry is off.
func Build(env apps.Env, hosts int) (*cluster.Cluster, *telemetry.Recorder) {
	c := cluster.BuildCollective(hosts, env.Topology)
	_, rec := env.Arm(c)
	return c, rec
}

// pointOn measures one variant of op on c, built for the given host count
// and armed with rec (nil when telemetry is off). The cluster outlives the
// run, so its NIC counters can be harvested.
func pointOn(c *cluster.Cluster, rec *telemetry.Recorder, op collective.Op, hosts int, active bool, prm collective.Params) Point {
	r := collective.RunOn(c, op, active, hosts, prm)
	pt := Point{
		Hosts:     hosts,
		Switches:  len(c.Switches),
		Latency:   r.Latency,
		Correct:   r.Correct,
		PerHost:   r.PerHost,
		Hits:      r.AggHits,
		Spills:    r.AggSpills,
		Ingested:  r.AggIngested,
		Balanced:  r.AggBalanced(),
		PerSwitch: r.PerSwitch,
	}
	for _, h := range c.Hosts {
		pt.HostBytes += h.Traffic()
	}
	if op == collective.KeyAgg {
		pt.Metrics = metrics.NewSnapshot()
		pt.Metrics.SetInt("collective/agg_hits", pt.Hits)
		pt.Metrics.SetInt("collective/agg_spills", pt.Spills)
		pt.Metrics.SetInt("collective/agg_ingested", pt.Ingested)
		for _, s := range pt.PerSwitch {
			pt.Metrics.SetInt(s.Name+"/agg_hits", s.Hits)
			pt.Metrics.SetInt(s.Name+"/agg_spills", s.Spills)
			pt.Metrics.SetInt(s.Name+"/agg_ingested", s.Ingested)
		}
	}
	if rec != nil {
		if pt.Metrics == nil {
			pt.Metrics = metrics.NewSnapshot()
		}
		rec.Into(pt.Metrics)
		for t := san.Type(0); t <= san.Ack; t++ {
			n, ps := rec.Path(t)
			pt.Packets += n
			for k := range ps {
				pt.HopPs[k] += ps[k]
			}
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

// curves are a pair sweep's latency (µs) and host-byte curves of each
// variant over the host counts, and the latency speedup of active over
// passive.
type curves struct {
	passLat, actLat, passBytes, actBytes, speedup stats.Series
}

// runPairs measures op passive, then active, at each host count, one
// count per env.Runs call. It then walks the counts in order: a count
// whose two points are not both correct gets an INCORRECT note in res,
// naming the passive variant passive; then each, when set, adds the
// count's own notes and runs. It names the passive latency curve
// passLat, the active one actLat.
func runPairs(res *stats.Result, env apps.Env, op collective.Op, hosts []int, prm collective.Params,
	passive, passLat, actLat string, each func(p int, pas, act Point)) curves {
	pts := make([][2]Point, len(hosts))
	env.Runs(len(hosts),
		func(i int) string { return fmt.Sprintf("%s p=%d", op, hosts[i]) },
		func(i int) {
			pts[i][0] = RunPoint(env, op, hosts[i], false, prm)
			pts[i][1] = RunPoint(env, op, hosts[i], true, prm)
		})
	var cv curves
	cv.passLat.Name, cv.actLat.Name = passLat, actLat
	cv.passBytes.Name, cv.actBytes.Name = "passive host bytes", "active host bytes"
	for i, p := range hosts {
		pas, act := pts[i][0], pts[i][1]
		if !pas.Correct || !act.Correct {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"p=%d: INCORRECT result (%s ok=%v, active ok=%v)", p, passive, pas.Correct, act.Correct))
		}
		x := float64(p)
		add(&cv.passLat, x, pas.Latency.Micros())
		add(&cv.actLat, x, act.Latency.Micros())
		add(&cv.passBytes, x, float64(pas.HostBytes))
		add(&cv.actBytes, x, float64(act.HostBytes))
		if each != nil {
			each(p, pas, act)
		}
	}
	cv.speedup = stats.SpeedupSeries("speedup", cv.passLat, cv.actLat)
	return cv
}

// add appends the point (x, y) to s.
func add(s *stats.Series, x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// FatTrees returns env building each point's minimal fat tree over
// env.Topology.Parts partitions (the serial engine below 2): results are
// byte-identical at every count (PERFORMANCE.md).
func FatTrees(env apps.Env) apps.Env {
	env.Topology = cluster.Topo{FatTree: true, Parts: env.Topology.Parts}
	return env
}

// Observed returns env without its fault plan and telemetry, for the
// clusters that honour only the trace sink and strict routes.
func Observed(env apps.Env) apps.Env {
	env.Faults, env.Telemetry = nil, false
	return env
}

// Sweep runs normal and active reductions over the node counts, each
// point built from env.Topology, and builds the paper's latency-vs-nodes
// figure with a speedup series: Figure 15 for collective.Reduce, Figure 16
// for collective.ReduceScatter, and reduce-to-all for
// collective.Allreduce. Its clusters honour env's trace sink and strict
// routes, not its fault plan or telemetry.
func Sweep(env apps.Env, op collective.Op, nodeCounts []int, prm collective.Params) *stats.Result {
	id, name := "fig15", "reduce-to-one"
	switch op {
	case collective.ReduceScatter:
		id, name = "fig16", "distributed-reduce"
	case collective.Allreduce:
		name = "reduce-to-all"
	}
	res := &stats.Result{ID: id, Title: fmt.Sprintf("Collective %s: latency vs nodes", name)}
	cv := runPairs(res, Observed(env), op, nodeCounts, prm,
		"normal", "normal ("+collective.HostAlgorithm(op)+")", "active (switch tree)", nil)
	res.Series = []stats.Series{cv.passLat, cv.actLat, cv.speedup}
	res.Notes = append(res.Notes, fmt.Sprintf("max speedup %.2fx", cv.speedup.MaxY()))
	return res
}

// ScaleSweep runs the reduce active and passive over the host counts on
// fat trees. Its clusters honour env's trace sink, strict routes and
// Topology.Parts, not its fault plan or telemetry.
func ScaleSweep(env apps.Env, hosts []int, prm collective.Params) *stats.Result {
	res := &stats.Result{
		ID:    "scalesweep",
		Title: "Reduce at scale on k-ary fat trees: active vs passive",
	}
	cv := runPairs(res, FatTrees(Observed(env)), collective.Reduce, hosts, prm,
		"passive", "passive (host MST)", "active (in-switch aggregation)",
		func(p int, pas, act Point) {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"p=%-3d k=%d (%d switches): host I/O %d B active vs %d B passive (%.2fx less), latency %v vs %v",
				p, cluster.MinFatTreeK(p), act.Switches, act.HostBytes, pas.HostBytes,
				float64(pas.HostBytes)/float64(act.HostBytes), act.Latency, pas.Latency))
		})
	res.Series = []stats.Series{cv.passLat, cv.actLat, cv.passBytes, cv.actBytes, cv.speedup}
	res.Notes = append(res.Notes, fmt.Sprintf("max speedup %.2fx", cv.speedup.MaxY()))
	return res
}

// LatSweep runs the reduce active and passive over the host counts on
// serial fat trees with a telemetry recorder always attached — it is the
// experiment about telemetry — and reports the end-to-end latency
// quantiles and each point's per-packet path decomposition. Its clusters
// honour env's trace sink, strict routes and span writer, not its fault
// plan. The histograms keep exact counts, so the result is byte-identical
// from run to run.
func LatSweep(env apps.Env, hosts []int, prm collective.Params) *stats.Result {
	res := &stats.Result{
		ID:    "latsweep",
		Title: "Per-hop latency decomposition: active vs passive reduce",
	}
	env.Faults, env.Telemetry, env.Topology = nil, true, cluster.Topo{FatTree: true}
	var passP50, actP50, passP99, actP99 stats.Series
	passP50.Name = "passive e2e p50 (us)"
	actP50.Name = "active e2e p50 (us)"
	passP99.Name = "passive e2e p99 (us)"
	actP99.Name = "active e2e p99 (us)"
	ps2us := func(pt Point, q string) float64 {
		return pt.Metrics.Get("telemetry/e2e/"+q) / 1e6 // picoseconds -> microseconds
	}
	runPairs(res, env, collective.Reduce, hosts, prm, "passive", "", "",
		func(p int, pas, act Point) {
			x := float64(p)
			add(&passP50, x, ps2us(pas, "p50"))
			add(&actP50, x, ps2us(act, "p50"))
			add(&passP99, x, ps2us(pas, "p99"))
			add(&actP99, x, ps2us(act, "p99"))
			res.Runs = append(res.Runs,
				stats.Run{Config: fmt.Sprintf("passive/p=%d", p), Time: pas.Latency,
					Traffic: pas.HostBytes, Hosts: p, Metrics: pas.Metrics},
				stats.Run{Config: fmt.Sprintf("active/p=%d", p), Time: act.Latency,
					Traffic: act.HostBytes, Hosts: p, Metrics: act.Metrics})
			res.Notes = append(res.Notes,
				fmt.Sprintf("p=%-3d passive per-pkt: %s", p, pas.perPacket()),
				fmt.Sprintf("p=%-3d active  per-pkt: %s", p, act.perPacket()))
		})
	sp := stats.SpeedupSeries("p99 speedup", passP99, actP99)
	res.Series = []stats.Series{passP50, actP50, passP99, actP99, sp}
	res.Notes = append(res.Notes, fmt.Sprintf("max p99 speedup %.2fx", sp.MaxY()))
	return res
}

// Params sizes RunAll's sweep.
type Params struct {
	// HostCounts are the swept cluster sizes for the op axis.
	HostCounts []int
	// Env arms each point's cluster (trace sink, strict routes, fault
	// plan, telemetry), and its Topology.Parts selects the engine layout:
	// that many partitions from 2 up, else the serial engine. Results are
	// byte-identical whatever the value.
	Env apps.Env
	// Op is the collective swept over HostCounts (allreduce by default;
	// the -collective flag selects others).
	Op collective.Op
	// Coll calibrates the collective at every point.
	Coll collective.Params
	// Budgets are the swept per-switch key-table capacities.
	Budgets []int
}

// DefaultParams sweeps 4 to 1024 hosts with the paper's 512-byte vectors
// and the aggregation budget from 1 key to the whole key space.
func DefaultParams() Params {
	return Params{
		HostCounts: []int{4, 8, 16, 32, 64, 256, 1024},
		Op:         collective.Allreduce,
		Coll:       collective.DefaultParams(),
		Budgets:    []int{1, 2, 4, 8, 16, 32, 64, 128},
	}
}

// aggHosts is the fixed cluster size of the budget axis.
const aggHosts = 16

// RunAll runs every measurement on fat trees: the op axis, the budget
// points and the host-shuffle reference. Its clusters honour everything
// prm.Env arms, so -faults and -telemetry compose with the sweep exactly
// as they do with the figure experiments.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "collsweep",
		Title: "In-network collectives: " + prm.Op.String() + " scaling and the aggregation spill cliff",
	}
	env := FatTrees(prm.Env)
	cv := runPairs(res, env, prm.Op, prm.HostCounts, prm.Coll,
		"passive", "passive ("+collective.HostAlgorithm(prm.Op)+")", "active (in-switch "+prm.Op.String()+")",
		func(p int, pas, act Point) {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"p=%-4d k=%d (%d switches): host I/O %d B active vs %d B passive (%.2fx less), latency %v vs %v",
				p, cluster.MinFatTreeK(p), act.Switches, act.HostBytes, pas.HostBytes,
				float64(pas.HostBytes)/float64(act.HostBytes), act.Latency, pas.Latency))
			// With the telemetry recorder armed, each point also carries
			// its per-hop latency decomposition.
			if env.Telemetry {
				res.Runs = append(res.Runs,
					stats.Run{Config: fmt.Sprintf("passive/p=%d", p), Time: pas.Latency,
						Traffic: pas.HostBytes, Hosts: p, Metrics: pas.Metrics},
					stats.Run{Config: fmt.Sprintf("active/p=%d", p), Time: act.Latency,
						Traffic: act.HostBytes, Hosts: p, Metrics: act.Metrics})
			}
		})

	budgets := make([]Point, len(prm.Budgets))
	for b, budget := range prm.Budgets {
		coll := prm.Coll
		coll.AggBudget = budget
		budgets[b] = RunPoint(env, collective.KeyAgg, aggHosts, true, coll)
	}
	// The host-shuffle reference (no switch table).
	aggRef := RunPoint(env, collective.KeyAgg, aggHosts, false, prm.Coll)

	var spillS, hitS, aggBytes stats.Series
	spillS.Name = "agg spills vs budget"
	hitS.Name = "agg hits vs budget"
	aggBytes.Name = "keyagg host bytes vs budget"
	for i, b := range prm.Budgets {
		pt := budgets[i]
		x := float64(b)
		add(&spillS, x, float64(pt.Spills))
		add(&hitS, x, float64(pt.Hits))
		add(&aggBytes, x, float64(pt.HostBytes))
		state := "balanced"
		if !pt.Balanced {
			state = "UNBALANCED"
		}
		if !pt.Correct {
			state += " INCORRECT"
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"keyagg p=%d budget=%-4d: hits=%-5d spills=%-5d ingested=%-5d (%s), host I/O %d B, latency %v",
			aggHosts, b, pt.Hits, pt.Spills, pt.Ingested, state, pt.HostBytes, pt.Latency))
		res.Runs = append(res.Runs, stats.Run{
			Config:  fmt.Sprintf("keyagg/budget=%d", b),
			Time:    pt.Latency,
			Traffic: pt.HostBytes,
			Hosts:   aggHosts,
			Metrics: pt.Metrics,
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"keyagg p=%d host shuffle reference: host I/O %d B, latency %v (correct=%v)",
		aggHosts, aggRef.HostBytes, aggRef.Latency, aggRef.Correct))
	res.Notes = append(res.Notes, fmt.Sprintf("max %s speedup %.2fx", prm.Op, cv.speedup.MaxY()))

	res.Series = []stats.Series{cv.passLat, cv.actLat, cv.passBytes, cv.actBytes, cv.speedup, hitS, spillS, aggBytes}
	return res
}

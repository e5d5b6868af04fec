// Package scalesweep probes the paper's core claim at scale: in-network
// aggregation cuts host I/O traffic, and the saving grows with the cluster.
// It sweeps a reduce-to-one collective over host counts on k-ary fat trees
// (the smallest k holding each point), running each point twice — active
// (hop-by-hop partial aggregation in the edge/agg/core switches) and
// passive (binomial MST on the hosts) — and reports completion-time and
// host-I/O-byte scaling curves. Not a figure from the paper: the paper
// stops at a fixed reduction tree; this is the scale-out extension its
// Section 7 gestures at.
package scalesweep

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Params sizes the sweep.
type Params struct {
	// HostCounts are the swept cluster sizes.
	HostCounts []int
	// Reduce calibrates the collective at every point.
	Reduce collective.Params
	// Env observes each point's cluster (trace sink, strict routes; no
	// fault plan or telemetry), and its Topology.Parts selects the engine
	// layout: 0 picks automatically from each point's topology, 1 forces
	// the serial engine, and n >= 2 forces exactly n partitions. Results
	// are byte-identical whatever the value; see PERFORMANCE.md.
	Env apps.Env
}

// DefaultParams sweeps 4 to 1024 hosts with the paper's 512-byte vectors
// on the serial engine. The 256- and 1024-host points (k=12 and k=16
// trees) are where partitioned simulation pays off.
func DefaultParams() Params {
	return Params{
		HostCounts: []int{4, 8, 16, 32, 64, 256, 1024},
		Reduce:     collective.DefaultParams(),
		Env:        apps.Env{Topology: cluster.Topo{Parts: 1}},
	}
}

// Point is one (hosts, variant) measurement.
type Point struct {
	Hosts     int
	K         int // fat-tree arity used
	Switches  int // physical switch count
	Latency   sim.Time
	HostBytes int64 // total bytes crossing host NICs
	Correct   bool
}

// RunPoint measures one variant at one cluster size on the minimal fat
// tree over env.Topology.Parts simulation partitions; the result is
// byte-identical at every partition count. The cluster outlives the run so
// NIC counters can be harvested.
func RunPoint(env apps.Env, hosts int, active bool, prm collective.Params) Point {
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), env.Topology.Parts)
	env.Observe(c)
	return pointOn(c, hosts, active, prm)
}

// pointOn measures one variant on c, the minimal fat tree for the given
// host count, already built and observed.
func pointOn(c *cluster.Cluster, hosts int, active bool, prm collective.Params) Point {
	r := collective.RunOn(c, collective.Reduce, active, hosts, prm)
	var bytes int64
	for _, h := range c.Hosts {
		bytes += h.Traffic()
	}
	return Point{
		Hosts:     hosts,
		K:         cluster.DefaultFatTreeConfig(hosts).K,
		Switches:  len(c.Switches),
		Latency:   r.Latency,
		HostBytes: bytes,
		Correct:   r.Correct,
	}
}

// RunAll runs the sweep. Each point simulates active and passive on its
// own engines.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "scalesweep",
		Title: "Reduce at scale on k-ary fat trees: active vs passive",
	}
	type pair struct{ passive, active Point }
	points := make([]pair, len(prm.HostCounts))
	for i, hosts := range prm.HostCounts {
		points[i].passive = RunPoint(prm.Env, hosts, false, prm.Reduce)
		points[i].active = RunPoint(prm.Env, hosts, true, prm.Reduce)
	}

	var passLat, actLat, passBytes, actBytes stats.Series
	passLat.Name = "passive (host MST)"
	actLat.Name = "active (in-switch aggregation)"
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
			"p=%-3d k=%d (%d switches): host I/O %d B active vs %d B passive (%.2fx less), latency %v vs %v",
			p, pa.K, pa.Switches, pa.HostBytes, pp.HostBytes,
			float64(pp.HostBytes)/float64(pa.HostBytes), pa.Latency, pp.Latency))
	}
	sp := stats.SpeedupSeries("speedup", passLat, actLat)
	res.Series = []stats.Series{passLat, actLat, passBytes, actBytes, sp}
	res.Notes = append(res.Notes, fmt.Sprintf("max speedup %.2fx", sp.MaxY()))
	return res
}

// Package reduce reproduces the paper's collective-reduction figures:
// Reduce-to-one (Figure 15) and Distributed Reduce (Figure 16) over
// 512-byte vectors on up to 128 nodes. The reductions themselves are
// collective.Reduce and collective.ReduceScatter. The normal case is the
// minimum-spanning-tree (binomial) algorithm on the hosts, whose latency
// lower bound is ceil(log2 p)(a+l); the active case sends every vector as
// an active message to its leaf switch, reduces inside the switch tree
// (arity N/2 = 8), and delivers the result with latency
// a + g + ceil(log_{N/2} p) d — speedups up to ~5.6x/5.9x at 128 nodes.
package reduce

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// ToOne, Result, DefaultParams and RunOn forward to internal/collective
// for callers that still name this package.

// ToOne is the paper's Reduce-to-one.
const ToOne = collective.Reduce

// Result is one reduction run's outcome.
type Result = collective.Result

// DefaultParams returns the paper's 512-byte vectors.
func DefaultParams() collective.Params { return collective.DefaultParams() }

// RunOn runs op on a prebuilt cluster; eng is the cluster's own engine.
func RunOn(_ *sim.Engine, c *cluster.Cluster, op collective.Op, active bool, p int, prm collective.Params) Result {
	return collective.RunOn(c, op, active, p, prm)
}

// DefaultNodeCounts is the paper's sweep (results shown up to 128 nodes).
var DefaultNodeCounts = []int{2, 4, 8, 16, 32, 64, 128}

// Sweep runs normal and active reductions over the node counts, one point
// per env.Runs call, and builds the paper's latency-vs-nodes figure with a
// speedup series: Figure 15 for collective.Reduce, Figure 16 for
// collective.ReduceScatter, and reduce-to-all for collective.Allreduce.
// Each point builds its cluster as collective.Run does from env; output is
// identical at any width.
func Sweep(env apps.Env, op collective.Op, nodeCounts []int, prm collective.Params) *stats.Result {
	id, name, normalName := "fig15", "reduce-to-one", "normal (MST)"
	switch op {
	case collective.ReduceScatter:
		id, name = "fig16", "distributed-reduce"
	case collective.Allreduce:
		name, normalName = "reduce-to-all", "normal (recursive doubling)"
	}
	res := &stats.Result{ID: id, Title: fmt.Sprintf("Collective %s: latency vs nodes", name)}
	points := make([]struct{ normal, active collective.Result }, len(nodeCounts))
	env.Runs(len(nodeCounts),
		func(i int) string { return fmt.Sprintf("%s p=%d", name, nodeCounts[i]) },
		func(i int) {
			points[i].normal = collective.Run(env, op, false, nodeCounts[i], prm)
			points[i].active = collective.Run(env, op, true, nodeCounts[i], prm)
		})
	var normal, active stats.Series
	normal.Name = normalName
	active.Name = "active (switch tree)"
	for i, p := range nodeCounts {
		rn, ra := points[i].normal, points[i].active
		if !rn.Correct || !ra.Correct {
			res.Notes = append(res.Notes, fmt.Sprintf("p=%d: INCORRECT result (normal ok=%v, active ok=%v)", p, rn.Correct, ra.Correct))
		}
		normal.X = append(normal.X, float64(p))
		normal.Y = append(normal.Y, rn.Latency.Micros())
		active.X = append(active.X, float64(p))
		active.Y = append(active.Y, ra.Latency.Micros())
	}
	sp := stats.SpeedupSeries("speedup", normal, active)
	res.Series = []stats.Series{normal, active, sp}
	res.Notes = append(res.Notes, fmt.Sprintf("max speedup %.2fx", sp.MaxY()))
	return res
}

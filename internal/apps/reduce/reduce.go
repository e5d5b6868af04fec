// Package reduce forwards the paper's Reduce-to-one to internal/collective
// for callers that still name this package. The reduction figures
// (Figures 15 and 16) are collsweep.Sweep.
package reduce

import (
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/sim"
)

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

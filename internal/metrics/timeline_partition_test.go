package metrics_test

// External test package: the workload builds a cluster, which metrics
// imports.

import (
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/metrics"
	"activesan/internal/sim"
)

// TestStartTimelinesPanicsOnPartitionedCluster: timelines sample on one
// engine, so a partitioned cluster is refused rather than sampled from rank
// 0 alone.
func TestStartTimelinesPanicsOnPartitionedCluster(t *testing.T) {
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(4), 2)
	defer c.Shutdown()
	c.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("StartTimelines on a 2-partition cluster did not panic")
		}
	}()
	metrics.StartTimelines(c, 50*sim.Microsecond)
}

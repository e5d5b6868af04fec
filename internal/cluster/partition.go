package cluster

import (
	"fmt"

	"activesan/internal/sim"
)

// Partitioning cuts a fabric into components that simulate on separate
// engines (sim.Group), with cut links crossing partition boundaries through
// lookahead channels. Cuts are chosen along the topology's route structure —
// pod boundaries in fat trees, BFS-contiguous regions in arbitrary graphs —
// so most traffic stays partition-local. Results are byte-identical at any
// partition count; see PERFORMANCE.md.

// FatTreePartition assigns a k-ary fat tree's switches to nparts partitions
// along pod boundaries: pod p — its edge and aggregation switches, and
// therefore every host and store in the pod — goes to partition p mod
// nparts, and core c to partition c mod nparts. Every cut link is an
// agg↔core trunk; intra-pod traffic never crosses a boundary.
func FatTreePartition(cfg FatTreeConfig, nparts int) []int {
	k := cfg.K
	half := k / 2
	if nparts < 1 {
		panic(fmt.Sprintf("cluster: fat-tree partition count %d", nparts))
	}
	part := make([]int, k*k+half*half)
	for pod := 0; pod < k; pod++ {
		for i := 0; i < k; i++ {
			part[pod*k+i] = pod % nparts
		}
	}
	for c := 0; c < half*half; c++ {
		part[k*k+c] = c % nparts
	}
	return part
}

// NewPartitionedFatTreeCluster builds a k-ary fat tree spread over nparts
// partitions; nparts <= 1 builds the plain serial engine, identical to
// NewFatTreeCluster. The aggregation-tree overlay matches NewFatTreeCluster
// exactly.
func NewPartitionedFatTreeCluster(cfg FatTreeConfig, nparts int) *Cluster {
	if nparts <= 1 {
		return NewFatTreeCluster(sim.NewEngine(), cfg)
	}
	g := sim.NewGroup(nparts)
	c := BuildPartitioned(g, FatTreeTopology(cfg), FatTreePartition(cfg, nparts))
	fatTreeOverlay(c, cfg)
	return c
}

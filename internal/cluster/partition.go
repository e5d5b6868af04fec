package cluster

import (
	"fmt"
	"runtime"

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

// PartitionTopology assigns an arbitrary connected topology's switches to
// nparts partitions: switches are walked in BFS order from switch 0 (the
// same traversal routing uses) and split into nparts contiguous chunks, so
// graph neighbors tend to share a partition and the cut stays small.
func PartitionTopology(t Topology, nparts int) []int {
	n := len(t.Switches)
	if nparts < 1 {
		panic(fmt.Sprintf("cluster: partition count %d", nparts))
	}
	adj := make([][]int, n)
	for _, l := range t.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	// Validate rejects disconnected specs; tack stragglers on anyway so the
	// map is total even for a spec that will fail Build.
	for v := range seen {
		if !seen[v] {
			order = append(order, v)
		}
	}
	part := make([]int, n)
	chunk := (n + nparts - 1) / nparts
	for i, v := range order {
		part[v] = i / chunk
	}
	return part
}

// AutoFatTreeParts picks the partition count for a k-ary fat tree when the
// caller asked for automatic partitioning: one per pod, capped by the
// machine's parallelism. Small fabrics (under 128 endpoint slots) stay
// serial — barrier overhead would exceed the win.
func AutoFatTreeParts(cfg FatTreeConfig) int {
	if cfg.Hosts+cfg.Stores < 128 {
		return 1
	}
	n := cfg.K
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewPartitionedFatTreeCluster builds a k-ary fat tree spread over nparts
// partitions (0 = auto via AutoFatTreeParts, 1 = the plain serial engine —
// identical to NewFatTreeCluster). The aggregation-tree overlay matches
// NewFatTreeCluster exactly.
func NewPartitionedFatTreeCluster(cfg FatTreeConfig, nparts int) *Cluster {
	if nparts == 0 {
		nparts = AutoFatTreeParts(cfg)
	}
	if nparts == 1 {
		return NewFatTreeCluster(sim.NewEngine(), cfg)
	}
	g := sim.NewGroup(nparts)
	c := BuildPartitioned(g, FatTreeTopology(cfg), FatTreePartition(cfg, nparts))
	fatTreeOverlay(c, cfg)
	return c
}

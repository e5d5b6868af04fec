package cluster

import "fmt"

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

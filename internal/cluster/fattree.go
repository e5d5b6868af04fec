package cluster

import (
	"fmt"

	"activesan/internal/aswitch"
	"activesan/internal/host"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Switch roles in a fat tree, used for handler placement.
const (
	RoleEdge = "edge"
	RoleAgg  = "agg"
	RoleCore = "core"
)

// FatTreeConfig parameterizes NewFatTreeCluster.
type FatTreeConfig struct {
	// K is the tree's arity: k pods of k/2 edge and k/2 aggregation
	// switches, (k/2)^2 cores, k/2 hosts per edge switch — host capacity
	// k^3/4. Must be even and >= 2.
	K int
	// Hosts and Stores are the endpoint counts; endpoints fill edge
	// switches in order (pod 0 edge 0 first).
	Hosts  int
	Stores int
	Switch aswitch.Config // Ports is overridden to K on every switch
	Host   host.Config
}

// MinFatTreeK returns the smallest even k whose fat tree holds `hosts`
// endpoints (k=4 holds 16, k=6 holds 54, k=8 holds 128).
func MinFatTreeK(hosts int) int {
	k := 2
	for k*k*k/4 < hosts {
		k += 2
	}
	return k
}

// DefaultFatTreeConfig returns the smallest fat tree holding `hosts`
// endpoints, built from the paper's switch and host parameters.
func DefaultFatTreeConfig(hosts int) FatTreeConfig {
	k := MinFatTreeK(hosts)
	return FatTreeConfig{
		K:      k,
		Hosts:  hosts,
		Switch: aswitch.DefaultConfig(k),
		Host:   host.DefaultConfig(),
	}
}

// FatTreeTopology lays out the k-ary fat tree as a Topology spec. Switch
// order (and therefore node ids): pod by pod, edges then aggs, cores last.
// Names: "p<pod>e<i>" (edge), "p<pod>a<i>" (agg), "core<i>". Aggregation
// switch j of every pod uplinks to cores j*(k/2) .. (j+1)*(k/2)-1, so any
// two hosts in different pods have (k/2)^2 equal-cost paths and the BFS
// tie-break spreads them across the parallel uplinks.
func FatTreeTopology(cfg FatTreeConfig) Topology {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("cluster: fat-tree k=%d must be even and >= 2", k))
	}
	half := k / 2
	if cfg.Hosts+cfg.Stores > k*k*k/4 {
		panic(fmt.Sprintf("cluster: %d endpoints exceed k=%d fat-tree capacity %d",
			cfg.Hosts+cfg.Stores, k, k*k*k/4))
	}
	edgeIdx := func(pod, e int) int { return pod*k + e }
	aggIdx := func(pod, a int) int { return pod*k + half + a }
	coreIdx := func(c int) int { return k*k + c }

	t := Topology{Switch: cfg.Switch, Host: cfg.Host}
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			t.Switches = append(t.Switches, SwitchSpec{Name: fmt.Sprintf("p%de%d", pod, e), Ports: k, Role: RoleEdge})
		}
		for a := 0; a < half; a++ {
			t.Switches = append(t.Switches, SwitchSpec{Name: fmt.Sprintf("p%da%d", pod, a), Ports: k, Role: RoleAgg})
		}
	}
	for c := 0; c < half*half; c++ {
		t.Switches = append(t.Switches, SwitchSpec{Name: fmt.Sprintf("core%d", c), Ports: k, Role: RoleCore})
	}

	// Endpoints fill edges in order: global edge g holds endpoint slots
	// g*(k/2) .. g*(k/2)+k/2-1.
	slotEdge := func(slot int) int {
		g := slot / half
		return edgeIdx(g/half, g%half)
	}
	for i := 0; i < cfg.Hosts; i++ {
		t.Hosts = append(t.Hosts, NodeSpec{Switch: slotEdge(i)})
	}
	for j := 0; j < cfg.Stores; j++ {
		t.Stores = append(t.Stores, NodeSpec{Switch: slotEdge(cfg.Hosts + j)})
	}

	// Trunks: edge→agg within each pod (edge-major, so edge ports after the
	// endpoints run a=0..k/2-1 and agg down-ports run e=0..k/2-1), then
	// agg→core (pod-major, so core ports run in pod order).
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.Links = append(t.Links, LinkSpec{A: aggIdx(pod, a), B: edgeIdx(pod, e)})
			}
		}
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for c := a * half; c < (a+1)*half; c++ {
				t.Links = append(t.Links, LinkSpec{A: coreIdx(c), B: aggIdx(pod, a)})
			}
		}
	}
	return t
}

// NewFatTreeCluster builds a k-ary fat tree and overlays the aggregation
// tree the collective offloads use: every edge switch with hosts feeds its
// pod's first aggregation switch, every participating pod's first
// aggregation switch feeds core 0 (all link-adjacent hops). Switches outside
// that tree get an explicit Parent of san.NoNode so per-stage handlers are
// placed only on participating edge/agg/core switches.
func NewFatTreeCluster(eng *sim.Engine, cfg FatTreeConfig) *Cluster {
	c := Build(eng, FatTreeTopology(cfg))
	fatTreeOverlay(c, cfg)
	return c
}

// fatTreeOverlay installs the aggregation-tree shape on a built fat tree —
// shared by the serial and partitioned constructors so both produce the
// same TreeInfo.
func fatTreeOverlay(c *Cluster, cfg FatTreeConfig) {
	k := cfg.K
	half := k / 2

	tree := &TreeInfo{
		Parent:   make(map[san.NodeID]san.NodeID),
		HostLeaf: make(map[san.NodeID]san.NodeID),
		Children: make(map[san.NodeID]int),
	}
	// Every switch gets an explicit Parent entry: a map miss would read as
	// NodeID(0), not NoNode, and non-participating switches must be
	// distinguishable from children of node 0.
	for _, sw := range c.Switches {
		tree.Parent[sw.ID()] = san.NoNode
	}
	root := c.Topo.Sw[k*k].ID() // core0
	tree.Root = root

	aggID := func(pod int) san.NodeID { return c.Topo.Sw[pod*k+half].ID() }
	podActive := make([]bool, k)
	for _, h := range c.Hosts {
		edge := c.Topo.Attach[h.ID()]
		edgeSw := c.Topo.Sw[edge]
		pod := edge / k
		tree.HostLeaf[h.ID()] = edgeSw.ID()
		tree.Children[edgeSw.ID()]++
		if tree.Parent[edgeSw.ID()] == san.NoNode {
			tree.Parent[edgeSw.ID()] = aggID(pod)
			tree.Children[aggID(pod)]++
		}
		podActive[pod] = true
	}
	for pod := 0; pod < k; pod++ {
		if podActive[pod] {
			tree.Parent[aggID(pod)] = root
			tree.Children[root]++
		}
	}
	// Degenerate but legal: a fat tree with no hosts has an empty tree;
	// collective runners require hosts anyway.
	c.Tree = tree
}

// Package cluster assembles simulated systems: hosts, storage nodes and
// active switches wired into the paper's topologies — a single-switch
// I/O cluster for the streaming benchmarks, the log_{N/2}(p) switch
// tree used for collective reduction at scale, and k-ary fat trees for
// scale-out experiments. All builders share one declarative layer
// (Topology + Build, see TOPOLOGIES.md) that owns link wiring and
// deterministic shortest-path routing.
package cluster

import (
	"fmt"

	"activesan/internal/aswitch"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Node-ID ranges keep identities readable in traces. The store and switch
// bases sit far above any realistic endpoint count: hosts number from 1, so
// a base of 200 (the historical value) made host 199's id collide with
// store 0 — and host 999 with switch 0 — silently corrupting routing tables
// on 1000+-host fabrics. Build rejects specs that overflow a range.
const (
	HostIDBase   san.NodeID = 1
	StoreIDBase  san.NodeID = 1 << 19
	SwitchIDBase san.NodeID = 1 << 20
)

// Cluster is a wired system ready to Start.
type Cluster struct {
	// Eng is the cluster's engine — rank 0's when partitioned. Run the
	// simulation through Cluster.Run (or Group.Run) rather than Eng.Run when
	// Group is set.
	Eng      *sim.Engine
	Switches []*aswitch.ActiveSwitch
	Hosts    []*host.Host
	Stores   []*iodev.StorageNode

	// Group and Part are set by BuildPartitioned: the partition group the
	// cluster is spread over, and each switch's partition rank by spec
	// index. Nil/nil for single-engine clusters.
	Group *sim.Group
	Part  []int

	// Tree describes the switch hierarchy for tree topologies (nil for
	// single-switch clusters). For fat trees it is the overlay aggregation
	// tree, not the physical graph.
	Tree *TreeInfo

	// Topo describes the built switch graph (spec, adjacency, endpoint
	// attachment) for clusters built through the Topology layer.
	Topo *TopoInfo

	// ExtraMetrics, when set, contributes additional top-level values to the
	// metrics snapshot (the fault injector registers its counters here; the
	// indirection keeps lower layers from importing internal/fault). Its
	// presence also gates all fault/retry metric emission.
	ExtraMetrics func(add func(name string, v float64))
	// FaultCounts reports cumulative (injected, recovered) fault counts for
	// timeline sampling; nil when no fault plan is armed.
	FaultCounts func() (injected, recovered int64)

	started bool
}

// TreeInfo captures the reduction tree's shape: each switch's parent (the
// root and non-participating switches map to san.NoNode), each host's leaf
// switch, and how many direct children (hosts or switches) feed each switch.
type TreeInfo struct {
	Parent   map[san.NodeID]san.NodeID
	HostLeaf map[san.NodeID]san.NodeID
	Children map[san.NodeID]int
	Root     san.NodeID
}

// Host returns host i.
func (c *Cluster) Host(i int) *host.Host { return c.Hosts[i] }

// Store returns storage node i.
func (c *Cluster) Store(i int) *iodev.StorageNode { return c.Stores[i] }

// Switch returns switch i (0 is the root in tree topologies).
func (c *Cluster) Switch(i int) *aswitch.ActiveSwitch { return c.Switches[i] }

// Start launches every component. Handlers must be registered before this.
func (c *Cluster) Start() {
	if c.started {
		panic("cluster: double Start")
	}
	c.started = true
	for _, s := range c.Switches {
		s.Start()
	}
	for _, h := range c.Hosts {
		h.Start()
	}
	for _, s := range c.Stores {
		s.Start()
	}
}

// Run executes the simulation to completion — the partition group's barrier
// loop when the cluster is partitioned, the single engine otherwise — and
// returns the final virtual time.
func (c *Cluster) Run() sim.Time {
	if c.Group != nil {
		return c.Group.Run()
	}
	return c.Eng.Run()
}

// Shutdown unwinds all simulation processes; call after the final Run.
func (c *Cluster) Shutdown() {
	if c.Group != nil {
		c.Group.Shutdown()
		return
	}
	c.Eng.Shutdown()
}

// EngineFor returns the engine simulating the component with the given node
// id — the cluster's only engine when not partitioned. Processes interacting
// with a component (a host's collective loop, say) must be spawned on its
// engine.
func (c *Cluster) EngineFor(id san.NodeID) *sim.Engine {
	if c.Group == nil || c.Topo == nil {
		return c.Eng
	}
	if i, ok := c.Topo.Index[id]; ok {
		return c.Group.Engine(c.Part[i])
	}
	if i, ok := c.Topo.Attach[id]; ok {
		return c.Group.Engine(c.Part[i])
	}
	return c.Eng
}

// attachHost wires a new host to switch port; installShortestPaths sets
// the switch's route to it.
func attachHost(eng *sim.Engine, sw *aswitch.ActiveSwitch, port int, id san.NodeID, name string, cfg host.Config) *host.Host {
	link := sw.Config().Link
	up := san.NewLink(eng, fmt.Sprintf("%s.up", name), link)
	down := san.NewLink(eng, fmt.Sprintf("%s.down", name), link)
	sw.AttachPort(port, up, down)
	return host.New(eng, id, name, down, up, cfg)
}

// attachStore wires a new storage node to switch port, as attachHost does
// a host.
func attachStore(eng *sim.Engine, sw *aswitch.ActiveSwitch, port int, id san.NodeID, name string) *iodev.StorageNode {
	link := sw.Config().Link
	up := san.NewLink(eng, fmt.Sprintf("%s.up", name), link)
	down := san.NewLink(eng, fmt.Sprintf("%s.down", name), link)
	sw.AttachPort(port, up, down)
	return iodev.New(eng, id, name, down, up)
}

// IOClusterConfig parameterizes NewIOCluster.
type IOClusterConfig struct {
	Hosts  int
	Stores int
	Switch aswitch.Config // Ports is overridden to fit
	Host   host.Config
}

// DefaultIOClusterConfig returns a one-host, one-store cluster
// configuration with the paper's parameters.
func DefaultIOClusterConfig() IOClusterConfig {
	return IOClusterConfig{
		Hosts:  1,
		Stores: 1,
		Switch: aswitch.DefaultConfig(8),
		Host:   host.DefaultConfig(),
	}
}

// NewIOCluster builds the paper's Figure 1 system: hosts and storage nodes
// around one (active) switch. Host i has node id HostIDBase+i; storage node
// j has StoreIDBase+j; the switch is SwitchIDBase.
func NewIOCluster(eng *sim.Engine, cfg IOClusterConfig) *Cluster {
	ports := cfg.Hosts + cfg.Stores
	if cfg.Switch.Base.Ports > ports {
		ports = cfg.Switch.Base.Ports
	}
	t := Topology{
		Switches: []SwitchSpec{{Name: "sw0", Ports: ports}},
		Switch:   cfg.Switch,
		Host:     cfg.Host,
	}
	for i := 0; i < cfg.Hosts; i++ {
		t.Hosts = append(t.Hosts, NodeSpec{})
	}
	for j := 0; j < cfg.Stores; j++ {
		t.Stores = append(t.Stores, NodeSpec{})
	}
	return Build(eng, t)
}

// TreeConfig parameterizes NewTreeCluster.
type TreeConfig struct {
	// Hosts is the number of compute nodes p.
	Hosts int
	// HostsPerLeaf is how many hosts hang off each leaf switch (the paper
	// uses 8 of each leaf's 16 ports).
	HostsPerLeaf int
	// Arity is the fan-in of interior switches (paper: N/2 = 8).
	Arity  int
	Switch aswitch.Config
	Host   host.Config
}

// DefaultTreeConfig returns the collective-reduction topology of the
// paper's Section 5: 16-port switches with 8 hosts per leaf.
func DefaultTreeConfig(p int) TreeConfig {
	return TreeConfig{
		Hosts:        p,
		HostsPerLeaf: 8,
		Arity:        8,
		Switch:       aswitch.DefaultConfig(16),
		Host:         host.DefaultConfig(),
	}
}

// NewTreeCluster builds a switch tree: ceil(p/HostsPerLeaf) leaf switches,
// reduced Arity-to-1 per level up to a single root. Switch 0 in the result
// is the root; leaves follow. Every switch routes every host and switch id.
// A single-leaf system degenerates to one switch, matching the paper's
// small-system case.
func NewTreeCluster(eng *sim.Engine, cfg TreeConfig) *Cluster {
	if cfg.Hosts <= 0 || cfg.HostsPerLeaf <= 0 || cfg.Arity < 2 {
		panic("cluster: invalid tree configuration")
	}
	nLeaves := (cfg.Hosts + cfg.HostsPerLeaf - 1) / cfg.HostsPerLeaf
	t := Topology{Switch: cfg.Switch, Host: cfg.Host}
	var level []int
	for l := 0; l < nLeaves; l++ {
		t.Switches = append(t.Switches, SwitchSpec{
			Name: fmt.Sprintf("leaf%d", l), Ports: cfg.Switch.Base.Ports, Role: "leaf",
		})
		level = append(level, l)
	}
	for i := 0; i < cfg.Hosts; i++ {
		t.Hosts = append(t.Hosts, NodeSpec{Switch: i / cfg.HostsPerLeaf})
	}

	// Reduce levels until a single root remains; parents are named by their
	// global creation index, matching the historical builder.
	parent := make(map[int]int)
	for len(level) > 1 {
		var next []int
		for i := 0; i < len(level); i += cfg.Arity {
			end := min(i+cfg.Arity, len(level))
			p := len(t.Switches)
			t.Switches = append(t.Switches, SwitchSpec{
				Name: fmt.Sprintf("sw%d", p), Ports: cfg.Switch.Base.Ports, Role: "interior",
			})
			for _, child := range level[i:end] {
				t.Links = append(t.Links, LinkSpec{A: p, B: child})
				parent[child] = p
			}
			next = append(next, p)
		}
		level = next
	}
	rootIdx := level[0]

	c := Build(eng, t)

	// Overlay the reduction-tree shape on node ids.
	tree := &TreeInfo{
		Parent:   make(map[san.NodeID]san.NodeID),
		HostLeaf: make(map[san.NodeID]san.NodeID),
		Children: make(map[san.NodeID]int),
	}
	id := func(idx int) san.NodeID { return c.Topo.Sw[idx].ID() }
	for idx := range t.Switches {
		if idx == rootIdx {
			continue
		}
		if p, ok := parent[idx]; ok {
			tree.Parent[id(idx)] = id(p)
		} else {
			tree.Parent[id(idx)] = san.NoNode
		}
	}
	for _, l := range t.Links {
		tree.Children[id(l.A)]++
	}
	for i, h := range c.Hosts {
		leaf := id(t.Hosts[i].Switch)
		tree.HostLeaf[h.ID()] = leaf
		tree.Children[leaf]++
	}
	tree.Root = id(rootIdx)
	tree.Parent[tree.Root] = san.NoNode
	c.Tree = tree

	// Order switches root first, then the rest in creation order, so
	// Switch(0) is the root and Start order matches the historical builder.
	ordered := []*aswitch.ActiveSwitch{c.Topo.Sw[rootIdx]}
	for idx, sw := range c.Topo.Sw {
		if idx != rootIdx {
			ordered = append(ordered, sw)
		}
	}
	c.Switches = ordered
	return c
}

// NewDualIOCluster builds a two-switch system: hosts on switch 0, storage
// on switch 1, joined by a trunk. It is the testbed for the paper's
// placement argument — a filter on the storage-side switch saves trunk
// bandwidth, one on the host-side switch does not.
func NewDualIOCluster(eng *sim.Engine, cfg IOClusterConfig) *Cluster {
	t := Topology{
		Switches: []SwitchSpec{
			{Name: "swH", Ports: cfg.Hosts + 1},
			{Name: "swS", Ports: cfg.Stores + 1},
		},
		Links:  []LinkSpec{{A: 0, B: 1, ABName: "trunk.hs", BAName: "trunk.sh"}},
		Switch: cfg.Switch,
		Host:   cfg.Host,
	}
	for i := 0; i < cfg.Hosts; i++ {
		t.Hosts = append(t.Hosts, NodeSpec{Switch: 0})
	}
	for j := 0; j < cfg.Stores; j++ {
		t.Stores = append(t.Stores, NodeSpec{Switch: 1})
	}
	return Build(eng, t)
}

package cluster

import (
	"fmt"

	"activesan/internal/aswitch"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Topology is a declarative multi-switch cluster spec: a switch graph, the
// trunk links joining it, and the endpoints hanging off each switch. Build
// turns a spec into a wired Cluster with deterministic shortest-path routing
// tables — the general layer underneath NewIOCluster, NewDualIOCluster,
// NewTreeCluster and NewFatTreeCluster (see TOPOLOGIES.md).
//
// Everything about a spec is order-significant and value-deterministic:
// switch IDs follow spec order from SwitchIDBase, ports are assigned in
// attachment order (hosts, then stores, then links, each in spec order), and
// route tables are a pure function of the spec. Two Builds of the same spec
// produce identical clusters.
type Topology struct {
	// Switches lists the switch graph's vertices. Spec index is the switch's
	// identity everywhere else in the spec.
	Switches []SwitchSpec
	// Links lists switch-to-switch trunks. Build wires both directions.
	Links []LinkSpec
	// Hosts and Stores place endpoints. Host i gets node id HostIDBase+i and
	// name "h<i>"; store j gets StoreIDBase+j and "d<j>".
	Hosts  []NodeSpec
	Stores []NodeSpec

	// Switch is the template configuration every switch is built from;
	// Base.Ports is overridden per switch (SwitchSpec.Ports).
	Switch aswitch.Config
	// Host configures every host.
	Host host.Config
}

// SwitchSpec is one switch in a Topology.
type SwitchSpec struct {
	// Name is the switch's debug name (also used in default link names).
	Name string
	// Ports fixes the port count; 0 sizes the switch to its attachments.
	Ports int
	// Role is an optional placement tag ("edge", "agg", "core", ...).
	Role string
}

// LinkSpec is one bidirectional trunk between switches A and B (spec
// indexes). Build creates two links: A→B named ABName and B→A named BAName;
// empty names default to "<nameA>-><nameB>" and "<nameB>-><nameA>".
type LinkSpec struct {
	A, B   int
	ABName string
	BAName string
}

// NodeSpec places one endpoint on a switch (spec index).
type NodeSpec struct {
	Switch int
}

// Validate checks a spec's internal references and connectivity. Build
// panics on the first violation; tests can call Validate directly.
func (t *Topology) Validate() error {
	n := len(t.Switches)
	if n == 0 {
		return fmt.Errorf("topology: no switches")
	}
	for i, l := range t.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("topology: links[%d] references switch %d/%d of %d", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return fmt.Errorf("topology: links[%d] is a self-loop on switch %d", i, l.A)
		}
	}
	for i, h := range t.Hosts {
		if h.Switch < 0 || h.Switch >= n {
			return fmt.Errorf("topology: hosts[%d] references switch %d of %d", i, h.Switch, n)
		}
	}
	for i, s := range t.Stores {
		if s.Switch < 0 || s.Switch >= n {
			return fmt.Errorf("topology: stores[%d] references switch %d of %d", i, s.Switch, n)
		}
	}
	// The switch graph must be connected or routing cannot cover it.
	adj := make([][]int, n)
	for _, l := range t.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("topology: switch %d (%s) unreachable from switch 0", i, t.Switches[i].Name)
		}
	}
	return nil
}

// TopoInfo is the built form of a Topology, kept on the Cluster for route
// verification, fault arming and handler placement.
type TopoInfo struct {
	// Spec is the topology the cluster was built from.
	Spec Topology
	// Sw maps spec index to the built switch (independent of the order of
	// Cluster.Switches, which tree builders rearrange root-first).
	Sw []*aswitch.ActiveSwitch
	// Index maps a switch's node id back to its spec index.
	Index map[san.NodeID]int
	// PortPeer gives, per spec index, the peer switch behind each port:
	// one entry per port, -1 for endpoint and unattached ports.
	PortPeer [][]int
	// Attach maps every endpoint id to the spec index of its switch.
	Attach map[san.NodeID]int
}

// Build instantiates a Topology on an engine: switches, endpoint and trunk
// links, and shortest-path routing tables. Routing is deterministic BFS with
// ECMP-style tie-breaks: among equal-cost next hops (sorted by port), the
// primary port is chosen by hashing the destination id with the switch's
// spec index — spreading flows across parallel uplinks — and the next
// candidate becomes the backup route (used when the primary's link is down).
// Next hops strictly decrease the distance to the destination, so routes are
// loop-free by construction whatever the tie-break. The routes are installed
// on a second goroutine while the calling one wires endpoints and trunks;
// Build returns, or re-raises a panic from either, once both are done.
func Build(eng *sim.Engine, t Topology) *Cluster {
	return build(t, eng, nil, nil)
}

// BuildPartitioned instantiates a Topology across a partition group: switch
// i (and every endpoint attached to it) lives on g.Engine(part[i]), and each
// trunk whose ends land in different partitions becomes a cut link — its
// sender half stays on the sending partition while deliveries and credits
// cross through a sim.Channel, connected in t.Links order, with
// san.DeliveryLookahead (the header's wire time plus the propagation) as
// delivery lookahead and the receiving switch's routing latency as credit
// lookahead.
// Everything else — ids, names, port order, routing tables — is identical to
// Build, and so are the simulation results at any partition count (see
// PERFORMANCE.md for the determinism contract).
func BuildPartitioned(g *sim.Group, t Topology, part []int) *Cluster {
	if len(part) != len(t.Switches) {
		panic(fmt.Sprintf("cluster: partition map covers %d of %d switches", len(part), len(t.Switches)))
	}
	for i, p := range part {
		if p < 0 || p >= g.Len() {
			panic(fmt.Sprintf("cluster: switch %d assigned to partition %d of %d", i, p, g.Len()))
		}
	}
	return build(t, g.Engine(0), g, part)
}

// build is the shared body of Build and BuildPartitioned; eng is the default
// engine (rank 0's when partitioned).
func build(t Topology, eng *sim.Engine, g *sim.Group, part []int) *Cluster {
	if err := t.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	n := len(t.Switches)
	// The id ranges (see HostIDBase) must not overlap or routing tables
	// silently collide.
	if san.NodeID(len(t.Hosts)) > StoreIDBase-HostIDBase {
		panic(fmt.Sprintf("cluster: %d hosts overflow the host id range", len(t.Hosts)))
	}
	if san.NodeID(len(t.Stores)) > SwitchIDBase-StoreIDBase {
		panic(fmt.Sprintf("cluster: %d stores overflow the store id range", len(t.Stores)))
	}
	engOf := func(specIdx int) *sim.Engine {
		if g == nil {
			return eng
		}
		return g.Engine(part[specIdx])
	}

	info := &TopoInfo{
		Spec:     t,
		Sw:       make([]*aswitch.ActiveSwitch, n),
		Index:    make(map[san.NodeID]int, n),
		PortPeer: planPorts(t),
		Attach:   make(map[san.NodeID]int),
	}
	c := &Cluster{
		Eng: eng, Group: g, Part: part, Topo: info,
		Switches: make([]*aswitch.ActiveSwitch, n),
		Hosts:    make([]*host.Host, len(t.Hosts)),
		Stores:   make([]*iodev.StorageNode, len(t.Stores)),
	}
	for i, spec := range t.Switches {
		cfg := t.Switch
		cfg.Base.Ports = len(info.PortPeer[i])
		sw := aswitch.New(engOf(i), SwitchIDBase+san.NodeID(i), spec.Name, cfg)
		info.Sw[i] = sw
		info.Index[sw.ID()] = i
		c.Switches[i] = sw
	}

	// The routes depend only on the spec and the port plan, so they are
	// installed on a second goroutine while this one wires the endpoints
	// and trunks. The route task owns every switch's route table; this
	// goroutine owns the switches' ports, the links, the endpoints, Attach
	// and the group's channels. Both only read the spec, Sw and PortPeer.
	concurrently(func() {
		wire(c, engOf)
	}, func() {
		installShortestPaths(info)
	})
	return c
}

// planPorts derives every switch's ports from the spec, before anything is
// wired: endpoints first (hosts, then stores), then trunks, each in spec
// order, so single-switch layouts keep their historical port order. It
// returns, per switch, the peer switch behind each port: -1 for endpoint
// and unattached ports. A switch with Ports 0 gets one port per attachment;
// one with fewer Ports than attachments panics.
func planPorts(t Topology) [][]int {
	n := len(t.Switches)
	next := make([]int, n) // the next free port: trunks start after the endpoints
	for _, h := range t.Hosts {
		next[h.Switch]++
	}
	for _, s := range t.Stores {
		next[s.Switch]++
	}
	trunks := make([]int, n)
	for _, l := range t.Links {
		trunks[l.A]++
		trunks[l.B]++
	}
	peer := make([][]int, n)
	for i, spec := range t.Switches {
		need, ports := next[i]+trunks[i], spec.Ports
		if ports == 0 {
			ports = need
		} else if ports < need {
			panic(fmt.Sprintf("cluster: switch %d (%s) has %d ports but %d attachments",
				i, spec.Name, ports, need))
		}
		peer[i] = make([]int, ports)
		for p := range peer[i] {
			peer[i][p] = -1
		}
	}
	for _, l := range t.Links {
		peer[l.A][next[l.A]] = l.B
		peer[l.B][next[l.B]] = l.A
		next[l.A]++
		next[l.B]++
	}
	return peer
}

// wire attaches c's hosts, stores and trunks to its switches in planPorts'
// order. Endpoints always share their switch's partition, so their links
// never cross a cut.
func wire(c *Cluster, engOf func(specIdx int) *sim.Engine) {
	info, t := c.Topo, &c.Topo.Spec
	nextPort := make([]int, len(t.Switches))
	for i, h := range t.Hosts {
		id := HostIDBase + san.NodeID(i)
		c.Hosts[i] = attachHost(engOf(h.Switch), info.Sw[h.Switch], nextPort[h.Switch], id, fmt.Sprintf("h%d", i), t.Host)
		nextPort[h.Switch]++
		info.Attach[id] = h.Switch
	}
	for j, s := range t.Stores {
		id := StoreIDBase + san.NodeID(j)
		c.Stores[j] = attachStore(engOf(s.Switch), info.Sw[s.Switch], nextPort[s.Switch], id, fmt.Sprintf("d%d", j))
		nextPort[s.Switch]++
		info.Attach[id] = s.Switch
	}
	// Channels are connected in t.Links order, on this goroutine alone: a
	// channel's index is the barrier's tie-break between same-time events.
	linkCfg := t.Switch.Base.Link
	la := san.DeliveryLookahead(linkCfg)
	for _, l := range t.Links {
		abName, baName := l.ABName, l.BAName
		if abName == "" {
			abName = fmt.Sprintf("%s->%s", t.Switches[l.A].Name, t.Switches[l.B].Name)
		}
		if baName == "" {
			baName = fmt.Sprintf("%s->%s", t.Switches[l.B].Name, t.Switches[l.A].Name)
		}
		// Each direction's link lives on its sender's engine; a direction
		// whose ends straddle partitions crosses through a cut channel.
		ab := san.NewLink(engOf(l.A), abName, linkCfg)
		ba := san.NewLink(engOf(l.B), baName, linkCfg)
		if g, part := c.Group, c.Part; g != nil && part[l.A] != part[l.B] {
			ab.SetCross(g.Connect(part[l.A], part[l.B], la, san.RoutingLatency))
			ba.SetCross(g.Connect(part[l.B], part[l.A], la, san.RoutingLatency))
		}
		info.Sw[l.A].AttachPort(nextPort[l.A], ba, ab)
		info.Sw[l.B].AttachPort(nextPort[l.B], ab, ba)
		nextPort[l.A]++
		nextPort[l.B]++
	}
}

// concurrently runs caller on the calling goroutine and side on a new one,
// and returns once both have stopped. A panic in either re-raises here,
// unchanged, and only after the other has stopped too; caller's wins when
// both panic, as it is the one a sequential build would have raised.
func concurrently(caller, side func()) {
	done := make(chan any, 1)
	go func() { done <- recovered(side) }()
	c := recovered(caller)
	s := <-done
	if c != nil {
		panic(c)
	}
	if s != nil {
		panic(s)
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// installShortestPaths fills every switch's routing table: each switch
// routes its own endpoints out of their ports, and every other node id
// along BFS over the trunk graph — one BFS per destination switch covers
// that switch's own id and every endpoint attached to it. It is the only
// writer of route tables.
func installShortestPaths(info *TopoInfo) {
	n := len(info.Sw)
	// destsAt[t]: node ids routed toward switch t, ascending — the switch
	// itself, then its hosts and stores in spec order, which hold ports
	// 0, 1, ... of t (planPorts).
	destsAt := make([][]san.NodeID, n)
	for i, sw := range info.Sw {
		destsAt[i] = append(destsAt[i], sw.ID())
	}
	for i, h := range info.Spec.Hosts {
		destsAt[h.Switch] = append(destsAt[h.Switch], HostIDBase+san.NodeID(i))
	}
	for j, st := range info.Spec.Stores {
		destsAt[st.Switch] = append(destsAt[st.Switch], StoreIDBase+san.NodeID(j))
	}

	// Every switch routes to every other node (Validate rejects a split
	// graph), so each table gets its three id runs at full size up front.
	for i, sw := range info.Sw {
		sw.ReserveRoutes(HostIDBase, len(info.Spec.Hosts))
		sw.ReserveRoutes(StoreIDBase, len(info.Spec.Stores))
		sw.ReserveRoutes(SwitchIDBase, n)
		for port, id := range destsAt[i][1:] {
			sw.SetRoute(id, port)
		}
	}

	dist := make([]int, n)
	queue := make([]int, 0, n)
	var cand []int
	for tIdx := 0; tIdx < n; tIdx++ {
		queue = bfsFrom(info, tIdx, dist, queue)
		for s := 0; s < n; s++ {
			if s == tIdx || dist[s] < 0 {
				continue
			}
			// Candidates in port order make the choice a pure function of
			// the spec.
			cand = cand[:0]
			for p, peer := range info.PortPeer[s] {
				if peer >= 0 && dist[peer] == dist[s]-1 {
					cand = append(cand, p)
				}
			}
			if len(cand) == 0 {
				continue // unreachable (Validate rejects this)
			}
			sw := info.Sw[s]
			for _, id := range destsAt[tIdx] {
				pick := (int(id) + s) % len(cand)
				sw.SetRoute(id, cand[pick])
				if len(cand) > 1 {
					sw.SetBackupRoute(id, cand[(pick+1)%len(cand)])
				}
			}
		}
	}
}

// bfsFrom fills dist with hop counts from switch t over the trunk graph
// (-1 = unreachable), using queue's storage for the BFS queue, and returns
// that storage for reuse.
func bfsFrom(info *TopoInfo, t int, dist []int, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[t] = 0
	queue = append(queue[:0], t)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, peer := range info.PortPeer[v] {
			if peer >= 0 && dist[peer] < 0 {
				dist[peer] = dist[v] + 1
				queue = append(queue, peer)
			}
		}
	}
	return queue
}

// Topo selects the cluster a collective runs on: the paper's reduction tree,
// or a k-ary fat tree (K = 0 picks the smallest fit) spread over Parts
// simulation partitions (Parts <= 1, the zero value included, builds the
// serial engine; see NewPartitionedFatTreeCluster). The tree has no partition cut, so it
// ignores K and Parts.
type Topo struct {
	FatTree bool
	K       int
	Parts   int
}

// BuildCollective builds the p-host cluster a collective runs on. The
// returned cluster always has a populated Tree.
func BuildCollective(p int, t Topo) *Cluster {
	if !t.FatTree {
		return NewTreeCluster(sim.NewEngine(), DefaultTreeConfig(p))
	}
	cfg := DefaultFatTreeConfig(p)
	if t.K > 0 {
		cfg.K = t.K
	}
	return NewPartitionedFatTreeCluster(cfg, t.Parts)
}

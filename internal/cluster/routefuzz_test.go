package cluster

// Metamorphic fuzzing of the shortest-path installer: random connected
// switch graphs must route every endpoint without loops, deterministically
// across rebuilds, and backup routes must be genuinely equal-cost.

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// randomSpec builds a random connected topology: a random spanning tree over
// 3..10 switches plus up to 3 extra edges, 0..2 hosts per switch, one store.
func randomSpec(r *sim.Rand) Topology {
	n := 3 + r.Intn(8)
	var t Topology
	for i := 0; i < n; i++ {
		t.Switches = append(t.Switches, SwitchSpec{Name: fuzzName(i)})
	}
	// Random spanning tree: attach each new switch to an earlier one.
	have := map[[2]int]bool{}
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		t.Links = append(t.Links, LinkSpec{A: p, B: i})
		have[[2]int{p, i}] = true
	}
	for e := r.Intn(4); e > 0; e-- {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if have[[2]int{a, b}] {
			continue
		}
		have[[2]int{a, b}] = true
		t.Links = append(t.Links, LinkSpec{A: a, B: b})
	}
	for i := 0; i < n; i++ {
		for h := r.Intn(3); h > 0; h-- {
			t.Hosts = append(t.Hosts, NodeSpec{Switch: i})
		}
	}
	if len(t.Hosts) == 0 {
		t.Hosts = append(t.Hosts, NodeSpec{Switch: 0})
	}
	t.Stores = append(t.Stores, NodeSpec{Switch: r.Intn(n)})
	cfg := DefaultIOClusterConfig()
	t.Switch, t.Host = cfg.Switch, cfg.Host
	return t
}

func fuzzName(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26)) + "sw"
}

// endpoints lists every routable destination id in a built cluster.
func endpoints(c *Cluster) []san.NodeID {
	var ids []san.NodeID
	for _, h := range c.Hosts {
		ids = append(ids, h.ID())
	}
	for _, st := range c.Stores {
		ids = append(ids, st.ID())
	}
	for _, sw := range c.Switches {
		ids = append(ids, sw.ID())
	}
	return ids
}

// peerOf returns the switch behind port on switch i, or -1 when port is
// -1 (no route) or leads to an endpoint.
func peerOf(c *Cluster, i, port int) int {
	if port < 0 {
		return -1
	}
	return c.Topo.PortPeer[i][port]
}

// homeSwitch finds the switch index owning a destination: the attach point
// for hosts/stores, the switch itself for switch ids.
func homeSwitch(c *Cluster, dst san.NodeID) int {
	if at, ok := c.Topo.Attach[dst]; ok {
		return at
	}
	return c.Topo.Index[dst]
}

func fuzzRounds(t *testing.T) int {
	if testing.Short() {
		return 8
	}
	return 40
}

// TestRouteFuzzLoopFree walks the installed route tables for every
// (switch, destination) pair on random graphs: following primary routes
// must reach the destination's switch within a TTL bound (no loops, no
// dead ends).
func TestRouteFuzzLoopFree(t *testing.T) {
	r := sim.NewRand(0x5eed0001)
	for round := 0; round < fuzzRounds(t); round++ {
		spec := randomSpec(r)
		c := Build(sim.NewEngine(), spec)
		ttl := len(c.Switches) + 2
		for _, dst := range endpoints(c) {
			home := homeSwitch(c, dst)
			for start := range c.Topo.Sw {
				at := start
				hops := 0
				for at != home {
					sw := c.Topo.Sw[at]
					var port int
					if id := sw.ID(); id == dst {
						break // destination is this switch itself
					} else {
						port = sw.Route(dst)
					}
					if port < 0 {
						t.Fatalf("round %d: %s has no route to %d", round, sw.Name(), dst)
					}
					next := c.Topo.PortPeer[at][port]
					if next < 0 {
						t.Fatalf("round %d: %s routes %d out endpoint port %d", round, sw.Name(), dst, port)
					}
					at = next
					if hops++; hops > ttl {
						t.Fatalf("round %d: routing loop toward %d starting at %s", round, dst, c.Topo.Sw[start].Name())
					}
				}
			}
		}
		c.Shutdown()
	}
}

// TestRouteFuzzDeterminism builds the same random spec twice and requires
// identical primary and backup route tables — the spec fully determines
// routing, with no map-iteration or timing dependence.
func TestRouteFuzzDeterminism(t *testing.T) {
	r := sim.NewRand(0x5eed0002)
	for round := 0; round < fuzzRounds(t); round++ {
		spec := randomSpec(r)
		c1 := Build(sim.NewEngine(), spec)
		c2 := Build(sim.NewEngine(), spec)
		ids := endpoints(c1)
		for i := range c1.Topo.Sw {
			for _, dst := range ids {
				p1, p2 := c1.Topo.Sw[i].Route(dst), c2.Topo.Sw[i].Route(dst)
				b1, b2 := c1.Topo.Sw[i].BackupRoute(dst), c2.Topo.Sw[i].BackupRoute(dst)
				if p1 != p2 || b1 != b2 {
					t.Fatalf("round %d: switch %d dst %d: build1 (%d,%d) != build2 (%d,%d)",
						round, i, dst, p1, b1, p2, b2)
				}
			}
		}
		c1.Shutdown()
		c2.Shutdown()
	}
}

// walkTo follows primary routes from switch index `start` until the packet
// would be delivered to dst, failing on a missing route or a loop. It is
// the deliverability half of the multicast fuzz: every down-tree edge the
// collective library multicasts over must be realizable hop-by-hop.
func walkTo(t *testing.T, c *Cluster, round, start int, dst san.NodeID) {
	t.Helper()
	home := homeSwitch(c, dst)
	ttl := len(c.Switches) + 2
	at, hops := start, 0
	for at != home {
		sw := c.Topo.Sw[at]
		if sw.ID() == dst {
			return
		}
		port := sw.Route(dst)
		if port < 0 {
			t.Fatalf("round %d: %s has no route to %d", round, sw.Name(), dst)
		}
		next := c.Topo.PortPeer[at][port]
		if next < 0 {
			t.Fatalf("round %d: %s routes %d out endpoint port %d", round, sw.Name(), dst, port)
		}
		at = next
		if hops++; hops > ttl {
			t.Fatalf("round %d: routing loop toward %d starting at %s", round, dst, c.Topo.Sw[start].Name())
		}
	}
}

// TestRouteFuzzMulticastDownTree fuzzes the path the collective library's
// down-tree multicast rides (see internal/collective): on random reduction
// trees and fat trees, walking the Tree overlay from the root — child
// switches by inverting Parent, member hosts from HostLeaf — must reach
// every switch and every participant host exactly once, loop-free within a
// TTL bound, and every down edge must be deliverable by the installed
// route tables.
func TestRouteFuzzMulticastDownTree(t *testing.T) {
	r := sim.NewRand(0x5eed0004)
	fatHosts := []int{4, 8, 16, 32, 64}
	for round := 0; round < fuzzRounds(t); round++ {
		var c *Cluster
		if round%2 == 0 {
			cfg := DefaultTreeConfig(2 + r.Intn(23))
			cfg.HostsPerLeaf = 2 + r.Intn(7)
			cfg.Arity = 2 + r.Intn(7)
			c = NewTreeCluster(sim.NewEngine(), cfg)
		} else {
			c = NewPartitionedFatTreeCluster(DefaultFatTreeConfig(fatHosts[r.Intn(len(fatHosts))]), 1)
		}
		tree := c.Tree
		if tree == nil {
			t.Fatalf("round %d: cluster has no tree overlay", round)
		}

		// Invert the overlay: per-switch child switches and member hosts —
		// exactly the fan-out deliverDown multicasts over.
		childSw := map[san.NodeID][]san.NodeID{}
		for sw, p := range tree.Parent {
			if p != san.NoNode {
				childSw[p] = append(childSw[p], sw)
			}
		}
		hostsAt := map[san.NodeID][]san.NodeID{}
		for h, leaf := range tree.HostLeaf {
			hostsAt[leaf] = append(hostsAt[leaf], h)
		}

		// TTL walk down from the root.
		swIdx := map[san.NodeID]int{}
		for i, sw := range c.Topo.Sw {
			swIdx[sw.ID()] = i
		}
		seenSw := map[san.NodeID]int{}
		seenHost := map[san.NodeID]int{}
		type visit struct {
			sw    san.NodeID
			depth int
		}
		queue := []visit{{tree.Root, 0}}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if v.depth > len(c.Switches) {
				t.Fatalf("round %d: down-tree walk exceeded TTL %d at %d", round, len(c.Switches), v.sw)
			}
			seenSw[v.sw]++
			at, ok := swIdx[v.sw]
			if !ok {
				t.Fatalf("round %d: tree overlay names unknown switch %d", round, v.sw)
			}
			for _, h := range hostsAt[v.sw] {
				seenHost[h]++
				walkTo(t, c, round, at, h)
			}
			for _, cs := range childSw[v.sw] {
				walkTo(t, c, round, at, cs)
				queue = append(queue, visit{cs, v.depth + 1})
			}
		}

		// Exactly-once coverage: every participant host, every on-tree
		// switch. Switches with an explicit NoNode parent (fat-tree edges,
		// aggs and cores outside the aggregation overlay) are legitimately
		// unreachable from the root — unless they hold members.
		for _, h := range c.Hosts {
			if n := seenHost[h.ID()]; n != 1 {
				t.Fatalf("round %d: host %d reached %d times, want exactly once", round, h.ID(), n)
			}
		}
		for sw, p := range tree.Parent {
			onTree := p != san.NoNode || sw == tree.Root
			if n := seenSw[sw]; onTree && n != 1 {
				t.Fatalf("round %d: switch %d visited %d times, want exactly once", round, sw, n)
			} else if !onTree && n != 0 {
				t.Fatalf("round %d: off-tree switch %d visited %d times", round, sw, n)
			}
		}
		c.Shutdown()
	}
}

// TestRouteFuzzBackupEqualCost checks the metamorphic property behind the
// ECMP tie-break: a backup route, when present, leads to a next hop at the
// same BFS distance from the destination as the primary's next hop, and
// differs from the primary port.
func TestRouteFuzzBackupEqualCost(t *testing.T) {
	r := sim.NewRand(0x5eed0003)
	for round := 0; round < fuzzRounds(t); round++ {
		spec := randomSpec(r)
		c := Build(sim.NewEngine(), spec)

		// Independent distances from an adjacency list built off the spec,
		// not off TopoInfo, so an installer bug can't hide.
		adj := make([][]int, len(spec.Switches))
		for _, l := range spec.Links {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
		distTo := func(target int) []int {
			d := make([]int, len(adj))
			for i := range d {
				d[i] = -1
			}
			d[target] = 0
			q := []int{target}
			for len(q) > 0 {
				u := q[0]
				q = q[1:]
				for _, v := range adj[u] {
					if d[v] < 0 {
						d[v] = d[u] + 1
						q = append(q, v)
					}
				}
			}
			return d
		}

		for _, dst := range endpoints(c) {
			home := homeSwitch(c, dst)
			d := distTo(home)
			for i, sw := range c.Topo.Sw {
				if i == home || sw.ID() == dst {
					continue
				}
				prim := sw.Route(dst)
				back := sw.BackupRoute(dst)
				pn := peerOf(c, i, prim)
				if pn < 0 || d[pn] != d[i]-1 {
					t.Fatalf("round %d: switch %d primary to %d not on a shortest path", round, i, dst)
				}
				if back < 0 {
					continue
				}
				if back == prim {
					t.Fatalf("round %d: switch %d backup to %d equals primary", round, i, dst)
				}
				bn := peerOf(c, i, back)
				if bn < 0 {
					t.Fatalf("round %d: switch %d backup to %d out endpoint port %d", round, i, dst, back)
				}
				if d[bn] != d[i]-1 {
					t.Fatalf("round %d: switch %d backup to %d not equal-cost (peer dist %d, want %d)",
						round, i, dst, d[bn], d[i]-1)
				}
			}
		}
		c.Shutdown()
	}
}

package cluster

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// smallSpec is a 3-switch line (sw0 - sw1 - sw2) with one host on each end
// and a store in the middle.
func smallSpec() Topology {
	t := Topology{
		Switches: []SwitchSpec{
			{Name: "sw0", Role: "edge"},
			{Name: "sw1", Role: "core"},
			{Name: "sw2", Role: "edge"},
		},
		Links:  []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}},
		Hosts:  []NodeSpec{{Switch: 0}, {Switch: 2}},
		Stores: []NodeSpec{{Switch: 1}},
	}
	cfg := DefaultIOClusterConfig()
	t.Switch, t.Host, t.IO = cfg.Switch, cfg.Host, cfg.IO
	return t
}

func TestTopologyValidate(t *testing.T) {
	good := smallSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*Topology){
		"no switches":       func(s *Topology) { s.Switches = nil },
		"link out of range": func(s *Topology) { s.Links[0].B = 9 },
		"self loop":         func(s *Topology) { s.Links[0].B = s.Links[0].A },
		"host out of range": func(s *Topology) { s.Hosts[0].Switch = -1 },
		"disconnected":      func(s *Topology) { s.Links = s.Links[:1] },
	}
	for name, mutate := range cases {
		bad := smallSpec()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildRoutesAndAdjacency(t *testing.T) {
	eng := sim.NewEngine()
	c := Build(eng, smallSpec())
	defer c.Shutdown()

	if len(c.Switches) != 3 || len(c.Hosts) != 2 || len(c.Stores) != 1 {
		t.Fatalf("built %d switches / %d hosts / %d stores", len(c.Switches), len(c.Hosts), len(c.Stores))
	}
	// Auto-sized ports: sw0 and sw2 have host+trunk, sw1 store+2 trunks.
	if p := c.Switches[0].Config().Ports; p != 2 {
		t.Errorf("sw0 has %d ports, want 2", p)
	}
	if p := c.Switches[1].Config().Ports; p != 3 {
		t.Errorf("sw1 has %d ports, want 3", p)
	}
	// Endpoint ports come first: the host link keeps its historical name.
	if name := c.Switches[0].Port(0).In.Name(); name != "h0.up" {
		t.Errorf("sw0 port 0 in-link = %q, want h0.up", name)
	}
	// Default trunk names follow <a>-><b>.
	if name := c.Switches[0].Port(1).Out.Name(); name != "sw0->sw1" {
		t.Errorf("sw0 trunk out-link = %q, want sw0->sw1", name)
	}

	// Shortest paths: sw0 reaches h1 (on sw2) via its trunk; sw1 routes the
	// two hosts out opposite trunks; every switch id is routable.
	h1 := c.Hosts[1].ID()
	if port := c.Switches[0].Route(h1); port != 1 {
		t.Errorf("sw0 routes h1 via port %d, want trunk port 1", port)
	}
	if port := c.Switches[1].Route(c.Hosts[0].ID()); port != 1 {
		t.Errorf("sw1 routes h0 via port %d, want port 1", port)
	}
	if port := c.Switches[1].Route(h1); port != 2 {
		t.Errorf("sw1 routes h1 via port %d, want port 2", port)
	}
	for _, sw := range c.Switches {
		for _, other := range c.Switches {
			if sw == other {
				continue
			}
			if sw.Route(other.ID()) < 0 {
				t.Errorf("%s has no route to %s", sw.Name(), other.Name())
			}
		}
	}
	// A line has unique shortest paths: no backup routes anywhere.
	for _, sw := range c.Switches {
		for _, id := range []san.NodeID{c.Hosts[0].ID(), h1, c.Stores[0].ID()} {
			if b := sw.BackupRoute(id); b >= 0 {
				t.Errorf("%s has backup route %d for %d on a unique-path graph", sw.Name(), b, id)
			}
		}
	}

	// TopoInfo reflects the spec.
	if c.Topo == nil || len(c.Topo.Sw) != 3 {
		t.Fatal("TopoInfo missing")
	}
	if c.Topo.Attach[c.Stores[0].ID()] != 1 {
		t.Errorf("store attached at %d, want 1", c.Topo.Attach[c.Stores[0].ID()])
	}
	if peer := c.Topo.PortPeer[0][1]; peer != 1 {
		t.Errorf("sw0 port 1 peers %d, want 1", peer)
	}
	if edges := c.SwitchesByRole("edge"); len(edges) != 2 {
		t.Errorf("%d edge switches, want 2", len(edges))
	}
}

func TestBuildPanicsOnTooFewPorts(t *testing.T) {
	spec := smallSpec()
	spec.Switches[1].Ports = 2 // needs 3
	defer func() {
		if recover() == nil {
			t.Fatal("undersized switch accepted")
		}
	}()
	Build(sim.NewEngine(), spec)
}

func TestBuildEndToEndMessage(t *testing.T) {
	eng := sim.NewEngine()
	c := Build(eng, smallSpec())
	c.Start()
	done := false
	eng.Spawn("rx", func(p *sim.Proc) {
		c.Host(1).RecvAny(p)
		done = true
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		c.Host(0).SendMessage(p, &san.Message{
			Hdr: san.Header{Dst: c.Host(1).ID(), Type: san.Data}, Size: 2048,
		}, 0)
	})
	eng.Run()
	defer c.Shutdown()
	if !done {
		t.Fatal("message never crossed the two-trunk path")
	}
}

func TestMinFatTreeK(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 4, 4: 4, 16: 4, 17: 6, 54: 6, 55: 8, 64: 8, 128: 8, 129: 10}
	for hosts, want := range cases {
		if got := MinFatTreeK(hosts); got != want {
			t.Errorf("MinFatTreeK(%d) = %d, want %d", hosts, got, want)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	eng := sim.NewEngine()
	c := NewFatTreeCluster(eng, DefaultFatTreeConfig(16))
	defer c.Shutdown()

	// k=4: 4 pods x (2 edge + 2 agg) + 4 cores = 20 switches.
	if len(c.Switches) != 20 {
		t.Fatalf("%d switches, want 20", len(c.Switches))
	}
	if len(c.SwitchesByRole(RoleEdge)) != 8 || len(c.SwitchesByRole(RoleAgg)) != 8 || len(c.SwitchesByRole(RoleCore)) != 4 {
		t.Fatalf("role counts edge=%d agg=%d core=%d, want 8/8/4",
			len(c.SwitchesByRole(RoleEdge)), len(c.SwitchesByRole(RoleAgg)), len(c.SwitchesByRole(RoleCore)))
	}
	// Every switch has exactly k ports and every port is attached at full
	// occupancy (16 hosts fill the k=4 capacity).
	for _, sw := range c.Switches {
		if sw.Config().Ports != 4 {
			t.Fatalf("%s has %d ports, want 4", sw.Name(), sw.Config().Ports)
		}
		for i := 0; i < 4; i++ {
			if sw.Port(i).In == nil {
				t.Fatalf("%s port %d unattached at full capacity", sw.Name(), i)
			}
		}
	}

	// The aggregation overlay: every switch has an explicit Parent entry,
	// the root is core0, and child counts sum to hosts + participants.
	if c.Tree == nil {
		t.Fatal("fat tree has no aggregation TreeInfo")
	}
	if got := len(c.Tree.Parent); got != 20 {
		t.Fatalf("%d Parent entries, want one per switch (20)", got)
	}
	root := c.Tree.Root
	if c.Tree.Parent[root] != san.NoNode {
		t.Fatal("root has a parent")
	}
	if c.Topo.Sw[16].ID() != root {
		t.Fatalf("root is %d, want core0 (%d)", root, c.Topo.Sw[16].ID())
	}
	// All 8 edges have 2 hosts; all 4 pods participate via their first agg.
	participants := 0
	for _, sw := range c.Switches {
		if n := c.Tree.Children[sw.ID()]; n > 0 {
			participants++
			if par := c.Tree.Parent[sw.ID()]; sw.ID() != root && par == san.NoNode {
				t.Errorf("%s participates but has no parent", sw.Name())
			}
		}
	}
	if participants != 8+4+1 {
		t.Errorf("%d participating switches, want 13 (8 edge + 4 agg + core0)", participants)
	}
	if c.Tree.Children[root] != 4 {
		t.Errorf("root has %d children, want 4 pods", c.Tree.Children[root])
	}
	// Non-participating switches (other aggs and cores) are explicit NoNode.
	agg1 := c.Topo.Sw[3] // pod 0, agg 1
	if c.Tree.Parent[agg1.ID()] != san.NoNode || c.Tree.Children[agg1.ID()] != 0 {
		t.Errorf("agg1 should not participate: parent=%d children=%d",
			c.Tree.Parent[agg1.ID()], c.Tree.Children[agg1.ID()])
	}
}

func TestFatTreePartialOccupancy(t *testing.T) {
	// 5 hosts on k=4: three edges used (2+2+1), one pod empty of hosts.
	eng := sim.NewEngine()
	cfg := DefaultFatTreeConfig(5)
	c := NewFatTreeCluster(eng, cfg)
	defer c.Shutdown()
	if cfg.K != 4 || len(c.Hosts) != 5 {
		t.Fatalf("k=%d hosts=%d", cfg.K, len(c.Hosts))
	}
	edges := 0
	for _, sw := range c.SwitchesByRole(RoleEdge) {
		if c.Tree.Children[sw.ID()] > 0 {
			edges++
		}
	}
	if edges != 3 {
		t.Errorf("%d participating edges, want 3", edges)
	}
	// Pod 0 and 1 participate, pods 2 and 3 do not.
	if c.Tree.Children[c.Tree.Root] != 2 {
		t.Errorf("root children = %d, want 2 pods", c.Tree.Children[c.Tree.Root])
	}
}

func TestFatTreeCrossPodMessage(t *testing.T) {
	// Host 0 (pod 0) to the last host (pod 3) crosses edge-agg-core-agg-edge;
	// ECMP must deliver and install a backup for the multipath hops.
	eng := sim.NewEngine()
	c := NewFatTreeCluster(eng, DefaultFatTreeConfig(16))
	c.Start()
	last := c.Host(15)
	got := false
	eng.Spawn("rx", func(p *sim.Proc) {
		last.RecvAny(p)
		got = true
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		c.Host(0).SendMessage(p, &san.Message{
			Hdr: san.Header{Dst: last.ID(), Type: san.Data}, Size: 4096,
		}, 0)
	})
	eng.Run()
	defer c.Shutdown()
	if !got {
		t.Fatal("cross-pod message lost")
	}
	// The sending edge has k/2 equal-cost uplinks toward the remote pod, so
	// a backup route must exist and differ from the primary.
	edge0 := c.Topo.Sw[0]
	prim, back := edge0.Route(last.ID()), edge0.BackupRoute(last.ID())
	if back < 0 {
		t.Fatal("no backup route on a multipath hop")
	}
	if back == prim {
		t.Fatal("backup equals primary")
	}
}

func TestBuildCollectiveHonorsDefault(t *testing.T) {
	c := BuildCollective(16, Topo{})
	if c.Topo.Spec.Switches[0].Name != "leaf0" {
		t.Fatalf("tree topology built %q", c.Topo.Spec.Switches[0].Name)
	}
	c.Shutdown()

	c = BuildCollective(16, Topo{FatTree: true, Parts: 1})
	if got := len(c.Switches); got != 20 {
		t.Fatalf("fattree built %d switches, want 20 (k=4)", got)
	}
	if c.Group != nil {
		t.Fatal("fattree built partitioned on one partition")
	}
	c.Shutdown()

	c = BuildCollective(16, Topo{FatTree: true, K: 6, Parts: 1})
	if got := len(c.Switches); got != 45 {
		t.Fatalf("fattree:6 built %d switches, want 45 (6*6 + 9)", got)
	}
	c.Shutdown()

	// Parts applies to fat trees; the tree has no cut and stays serial.
	c = BuildCollective(16, Topo{FatTree: true, Parts: 2})
	if c.Group == nil || c.Tree == nil {
		t.Fatal("fattree on 2 partitions built no partitioned group or overlay")
	}
	c.Shutdown()
	c = BuildCollective(16, Topo{Parts: 2})
	if c.Group != nil {
		t.Fatal("tree built partitioned")
	}
	c.Shutdown()
}

package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"activesan/internal/aswitch"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// routeDigest hashes every switch's primary and backup route toward every
// node id in the cluster, plus ids no node owns, switch by switch in spec
// order. Equal digests mean the route tables agree entry for entry,
// including on which ids read as "no route".
func routeDigest(c *Cluster) string {
	ids := endpoints(c)
	ids = append(ids, san.NoNode, -7, 0,
		HostIDBase+san.NodeID(len(c.Hosts)), StoreIDBase-1,
		StoreIDBase+san.NodeID(len(c.Stores)), SwitchIDBase-1,
		SwitchIDBase+san.NodeID(len(c.Switches)), 1<<21)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, sw := range c.Topo.Sw {
		put(int(sw.ID()))
		for _, id := range ids {
			put(sw.Route(id))
			put(sw.BackupRoute(id))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRouteTableDigests pins the complete route tables of the fabrics the
// experiments and the benchmark build. The digests were taken from the
// map-based tables the dense layout replaced, so any change to route
// installation or lookup shows up here as a mismatch.
func TestRouteTableDigests(t *testing.T) {
	fat256 := DefaultFatTreeConfig(256)
	fat256.K = 16
	fat256.Switch = aswitch.DefaultConfig(16)
	dual := DefaultIOClusterConfig()
	dual.Hosts, dual.Stores = 4, 3
	r := &fuzzRand{s: 0x5eed0013}
	cases := []struct {
		name  string
		build func() *Cluster
		want  string
	}{
		{"fattree-1024-k16", func() *Cluster { return NewFatTreeCluster(sim.NewEngine(), DefaultFatTreeConfig(1024)) }, "4ea9761fef40ace5"},
		{"fattree-256-k16-parts2", func() *Cluster { return NewPartitionedFatTreeCluster(fat256, 2) }, "571de651f16c2ce5"},
		{"tree-300", func() *Cluster { return NewTreeCluster(sim.NewEngine(), DefaultTreeConfig(300)) }, "8e2e2bb016acbd7a"},
		{"dual-io", func() *Cluster { return NewDualIOCluster(sim.NewEngine(), dual) }, "531da5584d42da84"},
		{"random-0", func() *Cluster { return Build(sim.NewEngine(), randomSpec(r)) }, "d34820bb993e976f"},
		{"random-1", func() *Cluster { return Build(sim.NewEngine(), randomSpec(r)) }, "353b676b84cf5362"},
		{"random-2", func() *Cluster { return Build(sim.NewEngine(), randomSpec(r)) }, "01a493dc26bcd44a"},
	}
	for _, tc := range cases {
		c := tc.build()
		got := routeDigest(c)
		c.Shutdown()
		if got != tc.want {
			t.Errorf("%s: route digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

package cluster

import (
	"testing"

	"activesan/internal/sim"
)

// BenchmarkFatTreeBuild1024 times building the 1024-host k=16 fat tree that
// the scale experiments construct once per run: 320 switches, the hosts
// with their cache hierarchies, every link, and every route table.
func BenchmarkFatTreeBuild1024(b *testing.B) {
	cfg := DefaultFatTreeConfig(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewFatTreeCluster(sim.NewEngine(), cfg)
		c.Shutdown()
	}
}

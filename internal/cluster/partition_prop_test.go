package cluster_test

// Property tests for the partition-parallel engine: a seeded random fabric
// must produce byte-identical results at every partition count. The serial
// engine is the oracle; the partitioned builds (2, 4, 8 ranks) must match
// its metric snapshot, its trace-event multiset, and its final virtual time
// exactly. This package is cluster_test (not cluster) because the oracle
// comparison pulls in metrics, which imports cluster.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// randomFabric builds a random connected topology: a spanning tree over
// 3..10 switches plus up to 3 extra edges, 0..2 hosts per switch (at least
// two overall, so the message ring is non-degenerate), and one store.
func randomFabric(r *sim.Rand) cluster.Topology {
	n := 3 + r.Intn(8)
	var t cluster.Topology
	for i := 0; i < n; i++ {
		name := string(rune('a'+i/26)) + string(rune('a'+i%26)) + "sw"
		t.Switches = append(t.Switches, cluster.SwitchSpec{Name: name})
	}
	have := map[[2]int]bool{}
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		t.Links = append(t.Links, cluster.LinkSpec{A: p, B: i})
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
		t.Links = append(t.Links, cluster.LinkSpec{A: a, B: b})
	}
	for i := 0; i < n; i++ {
		for h := r.Intn(3); h > 0; h-- {
			t.Hosts = append(t.Hosts, cluster.NodeSpec{Switch: i})
		}
	}
	for len(t.Hosts) < 2 {
		t.Hosts = append(t.Hosts, cluster.NodeSpec{Switch: len(t.Hosts) % n})
	}
	t.Stores = append(t.Stores, cluster.NodeSpec{Switch: r.Intn(n)})
	cfg := cluster.DefaultIOClusterConfig()
	t.Switch, t.Host, t.IO = cfg.Switch, cfg.Host, cfg.IO
	return t
}

// fabricResult is everything the identity property compares: the folded
// metric snapshot, the final virtual time, and the canonically ordered
// trace stream.
type fabricResult struct {
	values map[string]float64
	end    sim.Time
	trace  []sim.TraceEvent
}

// traceLess is the canonical trace order: (At, Cat, Name, Comp, Detail).
// Per-engine streams interleave differently at different partition counts,
// but the event multiset is identical, so sorting restores comparability.
func traceLess(a, b sim.TraceEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Comp != b.Comp {
		return a.Comp < b.Comp
	}
	return a.Detail < b.Detail
}

// pinnedDispatch lists the dispatch modes the identity tests run each
// partitioned point under: the default, which runs narrow windows inline,
// and concurrent, pinned so the race detector sees every round's windows
// overlap however narrow they are.
var pinnedDispatch = []sim.Dispatch{sim.DispatchAdaptive, sim.DispatchConcurrent}

// newPartitioned builds spec over nparts partitions (1 = serial Build) with
// the group's windows dispatched by d.
func newPartitioned(spec cluster.Topology, nparts int, d sim.Dispatch) *cluster.Cluster {
	if nparts == 1 {
		return cluster.Build(sim.NewEngine(), spec)
	}
	g := sim.NewGroup(nparts)
	g.SetDispatch(d)
	return cluster.BuildPartitioned(g, spec, cluster.PartitionTopology(spec, nparts))
}

// runFabric builds spec at the given partition count and dispatch and
// drives the standard workload: every host reads a slice of a shared file
// from the store and passes a 4 KB message around a host ring. Procs spawn
// on each host's home engine, exactly as partitioned applications must.
func runFabric(t *testing.T, spec cluster.Topology, nparts int, d sim.Dispatch) fabricResult {
	t.Helper()
	c := newPartitioned(spec, nparts, d)
	defer c.Shutdown()

	// One buffer per engine: partition workers emit concurrently, and each
	// sink must only touch its own rank's slice. Merged after Run drains.
	res := fabricResult{}
	var streams [][]sim.TraceEvent
	if c.Group != nil {
		streams = make([][]sim.TraceEvent, c.Group.Len())
		for r := 0; r < c.Group.Len(); r++ {
			r := r
			c.Group.Engine(r).SetTraceSink(func(ev sim.TraceEvent) { streams[r] = append(streams[r], ev) })
		}
	} else {
		streams = make([][]sim.TraceEvent, 1)
		c.Eng.SetTraceSink(func(ev sim.TraceEvent) { streams[0] = append(streams[0], ev) })
	}

	const fileSize = 256 << 10
	const readLen = 16 << 10
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: fileSize})
	c.Start()

	nh := len(c.Hosts)
	for i := 0; i < nh; i++ {
		i := i
		h := c.Host(i)
		next := c.Host((i + 1) % nh)
		prev := c.Host((i + nh - 1) % nh)
		c.EngineFor(h.ID()).Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			buf := h.Space().Alloc(readLen, 4096)
			tok := h.IssueRead(p, c.Store(0).ID(), "f", int64(i*4096)%(fileSize-readLen), readLen, buf)
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: next.ID(), Type: san.Data, Flow: int64(1000 + i)},
				Size: 4096,
			}, 0)
			h.RecvFlow(p, prev.ID(), int64(1000+(i+nh-1)%nh))
			h.WaitRead(p, tok)
		})
	}

	res.end = c.Run()
	res.values = metrics.Collect(c, res.end).Values
	for _, s := range streams {
		res.trace = append(res.trace, s...)
	}
	sort.Slice(res.trace, func(i, j int) bool { return traceLess(res.trace[i], res.trace[j]) })
	return res
}

func propRounds(t *testing.T) int {
	if testing.Short() {
		return 4
	}
	return 12
}

// TestPartitionFabricIdentity is the partitioned engine's core property:
// for seeded random fabrics, building the same spec at 1, 2, 4, and 8
// partitions yields byte-identical metric snapshots, final virtual times,
// and trace-event multisets. Any conservatism hole (a window executing an
// event before a cross-cut message that should precede it) perturbs packet
// timing and fails the trace comparison. Each partitioned point runs under
// every pinnedDispatch mode.
func TestPartitionFabricIdentity(t *testing.T) {
	r := sim.NewRand(0x9a57171001)
	for round := 0; round < propRounds(t); round++ {
		spec := randomFabric(r)
		want := runFabric(t, spec, 1, sim.DispatchAdaptive)
		if len(want.trace) == 0 {
			t.Fatalf("round %d: serial run emitted no trace events", round)
		}
		for _, nparts := range []int{2, 4, 8} {
			for _, d := range pinnedDispatch {
				label := fmt.Sprintf("round %d, %d partitions, %v dispatch", round, nparts, d)
				got := runFabric(t, spec, nparts, d)
				if got.end != want.end {
					t.Errorf("%s: end %v, serial %v", label, got.end, want.end)
				}
				if !reflect.DeepEqual(got.values, want.values) {
					reportValueDiff(t, label, want.values, got.values)
				}
				if !reflect.DeepEqual(got.trace, want.trace) {
					reportTraceDiff(t, label, want.trace, got.trace)
				}
			}
		}
	}
}

// reportValueDiff prints only the metrics that differ, so a failure names
// the component that diverged instead of dumping two full snapshots.
func reportValueDiff(t *testing.T, label string, want, got map[string]float64) {
	t.Helper()
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, okW := want[k]
		g, okG := got[k]
		if okW != okG || w != g {
			t.Errorf("%s: metric %s = %v, serial %v", label, k, g, w)
		}
	}
}

// reportTraceDiff finds the first diverging event in the canonical order.
func reportTraceDiff(t *testing.T, label string, want, got []sim.TraceEvent) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Errorf("%s: trace[%d] = %v, serial %v", label, i, got[i], want[i])
			return
		}
	}
	t.Errorf("%s: trace length %d, serial %d", label, len(got), len(want))
}

// TestFatTreePartitionPlacement pins the cut-selection contract for fat
// trees: a pod never straddles partitions (pod-internal links are the
// latency-critical ones), core switches spread round-robin, and every
// switch is assigned a valid rank.
func TestFatTreePartitionPlacement(t *testing.T) {
	for _, nparts := range []int{2, 4} {
		cfg := cluster.DefaultFatTreeConfig(16) // k=4: 4 pods of 4 switches, 4 cores
		spec := cluster.FatTreeTopology(cfg)
		part := cluster.FatTreePartition(cfg, nparts)
		if len(part) != len(spec.Switches) {
			t.Fatalf("nparts=%d: partition map covers %d of %d switches", nparts, len(part), len(spec.Switches))
		}
		podOf := map[int]int{} // pod -> partition
		for i, sw := range spec.Switches {
			if part[i] < 0 || part[i] >= nparts {
				t.Fatalf("nparts=%d: switch %s assigned rank %d", nparts, sw.Name, part[i])
			}
			if sw.Role == cluster.RoleCore {
				continue
			}
			var pod int
			if _, err := fmt.Sscanf(sw.Name, "p%d", &pod); err != nil {
				t.Fatalf("unexpected switch name %q", sw.Name)
			}
			if seen, ok := podOf[pod]; ok && seen != part[i] {
				t.Fatalf("nparts=%d: pod %d split across partitions %d and %d", nparts, pod, seen, part[i])
			}
			podOf[pod] = part[i]
		}
	}
}

// TestPartitionTopologyCovers checks the generic BFS partitioner on random
// fabrics: every switch gets a rank in range, no rank exceeds the contiguous
// chunk size ceil(n/nparts), and the used ranks form a prefix — trailing
// ranks may be empty when the ceiling rounds up (9 switches at 4 partitions
// is 3+3+3+0), and an empty engine is harmless because the group always
// drains it, but a rank used after an unused one would mean the chunk walk
// skipped part of the BFS order.
func TestPartitionTopologyCovers(t *testing.T) {
	r := sim.NewRand(0x9a57171002)
	for round := 0; round < 20; round++ {
		spec := randomFabric(r)
		for _, nparts := range []int{2, 3, 4, 8} {
			part := cluster.PartitionTopology(spec, nparts)
			if len(part) != len(spec.Switches) {
				t.Fatalf("round %d nparts=%d: map covers %d of %d switches",
					round, nparts, len(part), len(spec.Switches))
			}
			chunk := (len(spec.Switches) + nparts - 1) / nparts
			used := make([]int, nparts)
			for i, p := range part {
				if p < 0 || p >= nparts {
					t.Fatalf("round %d nparts=%d: switch %d assigned rank %d", round, nparts, i, p)
				}
				used[p]++
			}
			empty := false
			for rank, n := range used {
				if n > chunk {
					t.Errorf("round %d nparts=%d: rank %d owns %d switches, chunk bound %d",
						round, nparts, rank, n, chunk)
				}
				if n == 0 {
					empty = true
				} else if empty {
					t.Errorf("round %d nparts=%d: rank %d used after an empty rank", round, nparts, rank)
				}
			}
		}
	}
}

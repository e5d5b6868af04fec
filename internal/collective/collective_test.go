package collective

import (
	"fmt"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/sim"
)

var allOps = []Op{Allreduce, Barrier, Scatter, Gather, KeyAgg, Reduce, ReduceScatter}

// vectorOps are the operations that combine vectors with Params.Operator.
var vectorOps = []Op{Allreduce, Reduce, ReduceScatter}

func treeRun(op Op, active bool, p int, prm Params) Result {
	return RunOn(cluster.NewTreeCluster(sim.NewEngine(), cluster.DefaultTreeConfig(p)), op, active, p, prm)
}

func fatRun(op Op, active bool, hosts, parts int, prm Params) Result {
	return fatRunPinned(op, active, hosts, parts, prm, sim.DispatchAdaptive)
}

// fatRunPinned is fatRun with a partitioned group's window dispatch pinned
// to d.
func fatRunPinned(op Op, active bool, hosts, parts int, prm Params, d sim.Dispatch) Result {
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
	if c.Group != nil {
		c.Group.SetDispatch(d)
	}
	return RunOn(c, op, active, hosts, prm)
}

// pinnedDispatch lists the dispatch modes the identity tests run every
// partitioned point under: the default, which runs narrow windows inline,
// and concurrent, pinned so the race detector sees every round's windows
// overlap however narrow they are.
var pinnedDispatch = []sim.Dispatch{sim.DispatchAdaptive, sim.DispatchConcurrent}

func requireRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for j := range want {
		if !int64SlicesEqual(got[j], want[j]) {
			t.Fatalf("%s: rank %d holds %v, want %v", label, j, got[j], want[j])
		}
	}
}

// Every op, active and passive, on the paper's switch tree, including host
// counts that leave the tree ragged and the single-switch degenerate case.
func TestOpsMatchOracleOnTree(t *testing.T) {
	counts := []int{1, 2, 3, 5, 8, 16, 20}
	if testing.Short() {
		counts = []int{1, 3, 8}
	}
	prm := DefaultParams()
	for _, p := range counts {
		for _, op := range allOps {
			want := ExpectedPerHost(op, p, opParams(op, prm))
			act := treeRun(op, true, p, prm)
			pas := treeRun(op, false, p, prm)
			if !act.Correct {
				t.Errorf("tree p=%d %s active incorrect", p, op)
			}
			if !pas.Correct {
				t.Errorf("tree p=%d %s passive incorrect", p, op)
			}
			requireRows(t, fmt.Sprintf("tree p=%d %s active", p, op), act.PerHost, want)
			requireRows(t, fmt.Sprintf("tree p=%d %s passive", p, op), pas.PerHost, want)
		}
	}
}

// Every op on k-ary fat trees: the overlay is the edge/agg/core aggregation
// tree, exercised with multi-pod shapes.
func TestOpsMatchOracleOnFatTree(t *testing.T) {
	counts := []int{4, 16}
	if testing.Short() {
		counts = []int{16}
	}
	prm := DefaultParams()
	for _, p := range counts {
		for _, op := range allOps {
			want := ExpectedPerHost(op, p, opParams(op, prm))
			act := fatRun(op, true, p, 1, prm)
			pas := fatRun(op, false, p, 1, prm)
			if !act.Correct || !pas.Correct {
				t.Errorf("fattree p=%d %s: active ok=%v passive ok=%v", p, op, act.Correct, pas.Correct)
			}
			requireRows(t, fmt.Sprintf("fattree p=%d %s active", p, op), act.PerHost, want)
			requireRows(t, fmt.Sprintf("fattree p=%d %s passive", p, op), pas.PerHost, want)
		}
	}
}

// The partition-parallel engine must not change a single byte or timestamp:
// every op, serial vs 2 vs 4 partitions on a 16-host fat tree, under every
// pinnedDispatch mode.
func TestPartitionedByteIdentity(t *testing.T) {
	prm := DefaultParams()
	for _, op := range allOps {
		for _, active := range []bool{true, false} {
			base := fatRun(op, active, 16, 1, prm)
			for _, parts := range []int{2, 4} {
				for _, d := range pinnedDispatch {
					got := fatRunPinned(op, active, 16, parts, prm, d)
					label := fmt.Sprintf("%s active=%v parts=%d dispatch=%v", op, active, parts, d)
					requireRows(t, label, got.PerHost, base.PerHost)
					if got.Latency != base.Latency {
						t.Errorf("%s: latency %v, serial %v", label, got.Latency, base.Latency)
					}
					if got.AggHits != base.AggHits || got.AggSpills != base.AggSpills {
						t.Errorf("%s: agg ledger (%d,%d), serial (%d,%d)",
							label, got.AggHits, got.AggSpills, base.AggHits, base.AggSpills)
					}
				}
			}
		}
	}
}

// The passive keyagg shuffle is a perfectly synchronized all-to-all burst:
// every rank starts at the identical instant (the per-rank injection stagger
// that used to dodge same-instant ties is gone), so same-instant arrivals
// collide at shared switches on purpose. The settle-phase crossbar must keep
// the run byte-identical at 1, 2, 4, and 8 partitions, under every
// pinnedDispatch mode.
func TestKeyAggSynchronizedShuffleIdentity(t *testing.T) {
	prm := DefaultParams()
	want := ExpectedPerHost(KeyAgg, 16, opParams(KeyAgg, prm))
	base := fatRun(KeyAgg, false, 16, 1, prm)
	requireRows(t, "keyagg shuffle serial", base.PerHost, want)
	if !base.Correct {
		t.Fatal("serial shuffle incorrect")
	}
	for _, parts := range []int{2, 4, 8} {
		for _, d := range pinnedDispatch {
			got := fatRunPinned(KeyAgg, false, 16, parts, prm, d)
			label := fmt.Sprintf("keyagg shuffle parts=%d dispatch=%v", parts, d)
			requireRows(t, label, got.PerHost, base.PerHost)
			if got.Latency != base.Latency {
				t.Errorf("%s: latency %v, serial %v", label, got.Latency, base.Latency)
			}
			if got.AggHits != base.AggHits || got.AggSpills != base.AggSpills {
				t.Errorf("%s: agg ledger (%d,%d), serial (%d,%d)",
					label, got.AggHits, got.AggSpills, base.AggHits, base.AggSpills)
			}
		}
	}
}

// The key-aggregation ledger must balance at every budget, spill when the
// table cannot hold the key space, and stay spill-free when it can.
func TestKeyAggLedgerBalance(t *testing.T) {
	prm := DefaultParams()
	for _, budget := range []int{1, 2, 4, 8, 32, 64, 1 << 20} {
		prm.AggBudget = budget
		for _, r := range []Result{treeRun(KeyAgg, true, 8, prm), fatRun(KeyAgg, true, 16, 1, prm)} {
			if !r.Correct {
				t.Errorf("budget=%d: incorrect result", budget)
			}
			if !r.AggBalanced() {
				t.Errorf("budget=%d: ledger unbalanced: hits=%d spills=%d ingested=%d",
					budget, r.AggHits, r.AggSpills, r.AggIngested)
			}
			if len(r.PerSwitch) == 0 || r.AggIngested == 0 {
				t.Errorf("budget=%d: no per-switch ledgers harvested", budget)
			}
			if budget < prm.Keys/2 && r.AggSpills == 0 {
				t.Errorf("budget=%d: expected spills with %d keys", budget, prm.Keys)
			}
			if budget >= prm.Keys && r.AggSpills != 0 {
				t.Errorf("budget=%d: %d spills with the whole key space resident", budget, r.AggSpills)
			}
		}
	}
}

// Passive runs must leave switch handler state untouched.
func TestPassiveTouchesNoSwitchState(t *testing.T) {
	for _, op := range allOps {
		c := cluster.NewTreeCluster(sim.NewEngine(), cluster.DefaultTreeConfig(8))
		RunOn(c, op, false, 8, DefaultParams())
		for _, sw := range c.Switches {
			for _, id := range []int{combineHandlerID, mcastHandlerID, scatterHandlerID, gatherHandlerID, kaHandlerID} {
				if sw.HandlerState(id) != nil {
					t.Fatalf("passive %s installed state for handler %d on %s", op, id, sw.Name())
				}
			}
		}
	}
}

// The paper lists max, min, sum, product and bit-wise operators; every
// vector reduction must apply each one on both paths.
func TestAllOperators(t *testing.T) {
	for _, o := range []Operator{Sum, Max, Min, Prod, Or, And} {
		prm := DefaultParams()
		prm.Operator = o
		for _, op := range vectorOps {
			want := ExpectedPerHost(op, 8, prm)
			for _, active := range []bool{false, true} {
				r := treeRun(op, active, 8, prm)
				if !r.Correct {
					t.Errorf("%s operator=%s active=%v: wrong result", op, o, active)
				}
				requireRows(t, fmt.Sprintf("%s operator=%s active=%v", op, o, active), r.PerHost, want)
			}
		}
	}
	// Barrier counts ranks whatever the operator.
	prm := DefaultParams()
	prm.Operator = Max
	if r := treeRun(Barrier, true, 8, prm); !r.Correct || r.PerHost[3][0] != 8 {
		t.Fatalf("barrier under operator max: correct=%v row %v", r.Correct, r.PerHost[3])
	}
}

func TestSliceBoundsPartition(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 64, 128} {
		covered := 0
		prev := 0
		for j := 0; j < p; j++ {
			lo, hi := sliceBounds(j, p, 64)
			if lo != prev {
				t.Fatalf("p=%d: slice %d starts at %d, want %d", p, j, lo, prev)
			}
			covered += hi - lo
			prev = hi
		}
		if covered != 64 {
			t.Fatalf("p=%d: slices cover %d elems, want 64", p, covered)
		}
	}
}

// A single-shot reduce is round 0 of the pipeline: one pipelined round is
// the isolated reduce, to the picosecond.
func TestPipelinedSingleRoundMatchesIsolated(t *testing.T) {
	prm := DefaultParams()
	res := RunPipelined(apps.Env{}, 8, 1, prm)
	if !res.Correct {
		t.Fatal("single pipelined round incorrect")
	}
	if iso := Run(apps.Env{}, Reduce, true, 8, prm).Latency; res.Total != iso {
		t.Fatalf("single-round pipelined %v vs isolated %v", res.Total, iso)
	}
}

// Reduce-to-one and distributed-reduce latencies pinned on shapes no
// golden covers, in picoseconds: ragged trees and a fat tree, serial and
// partitioned. They were recorded from the paper benchmark's own
// implementation before it became collective.Reduce and
// collective.ReduceScatter, so a changed cost or message in the shared
// combine handler or the binomial host algorithms shows here.
func TestPinnedReduceLatencies(t *testing.T) {
	type pin struct {
		shape           string
		p, parts        int
		op              Op
		passive, active int64
	}
	pins := []pin{
		{"tree", 3, 1, Reduce, 11206500, 9726500},
		{"tree", 3, 1, ReduceScatter, 22486500, 9758500},
		{"tree", 12, 1, Reduce, 26606500, 13298500},
		{"tree", 12, 1, ReduceScatter, 52190500, 13762500},
		{"tree", 100, 1, Reduce, 51010500, 17758500},
		{"tree", 100, 1, ReduceScatter, 98930500, 23806500},
		{"fattree", 64, 1, Reduce, 48218500, 15650500},
		{"fattree", 64, 1, ReduceScatter, 92642500, 17858500},
		{"fattree", 64, 2, Reduce, 48218500, 15650500},
		{"fattree", 64, 2, ReduceScatter, 92642500, 17858500},
	}
	prm := DefaultParams()
	for _, pn := range pins {
		for _, active := range []bool{false, true} {
			var r Result
			if pn.shape == "tree" {
				r = treeRun(pn.op, active, pn.p, prm)
			} else {
				r = fatRun(pn.op, active, pn.p, pn.parts, prm)
			}
			want := pn.passive
			if active {
				want = pn.active
			}
			label := fmt.Sprintf("%s p=%d parts=%d %s active=%v", pn.shape, pn.p, pn.parts, pn.op, active)
			if !r.Correct {
				t.Errorf("%s: incorrect result", label)
			}
			if int64(r.Latency) != want {
				t.Errorf("%s: latency %dps, pinned %dps", label, int64(r.Latency), want)
			}
		}
	}
}

// propRand returns the property tests' generator. Its first draw is skipped
// so each seed keeps generating the shapes it always has.
func propRand(seed uint64) *sim.Rand {
	r := sim.NewRand(seed)
	r.Next()
	return r
}

// Satellite property test, random-shape arm: for seeded random tree shapes
// and vector sizes, active allreduce/gather are byte-identical to the
// in-process host-only reference fold (and to the passive run).
func TestPropertyRandomTreeShapes(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	rng := propRand(0xC0115EED)
	for i := 0; i < rounds; i++ {
		cfg := cluster.DefaultTreeConfig(2 + rng.Intn(23))
		cfg.HostsPerLeaf = 2 + rng.Intn(7)
		cfg.Arity = 2 + rng.Intn(7)
		prm := DefaultParams()
		prm.Elems = 4 + rng.Intn(61)
		prm.VectorBytes = int64(prm.Elems) * 8
		for _, op := range []Op{Allreduce, Gather} {
			want := ExpectedPerHost(op, cfg.Hosts, prm)
			act := RunOn(cluster.NewTreeCluster(sim.NewEngine(), cfg), op, true, cfg.Hosts, prm)
			pas := RunOn(cluster.NewTreeCluster(sim.NewEngine(), cfg), op, false, cfg.Hosts, prm)
			label := fmt.Sprintf("round %d: p=%d leaf=%d arity=%d elems=%d %s",
				i, cfg.Hosts, cfg.HostsPerLeaf, cfg.Arity, prm.Elems, op)
			requireRows(t, label+" active", act.PerHost, want)
			requireRows(t, label+" passive", pas.PerHost, want)
		}
	}
}

// Satellite property test, partition arm: random vector sizes on fat trees
// at 1/2/4 partitions — active allreduce/gather match the reference fold and
// are byte-identical across partition counts and dispatch modes.
func TestPropertyPartitionedMatchesReference(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	rng := propRand(0xFA77EE)
	for i := 0; i < rounds; i++ {
		hosts := []int{8, 16}[rng.Intn(2)]
		prm := DefaultParams()
		prm.Elems = 4 + rng.Intn(61)
		prm.VectorBytes = int64(prm.Elems) * 8
		for _, op := range []Op{Allreduce, Gather} {
			want := ExpectedPerHost(op, hosts, prm)
			base := fatRun(op, true, hosts, 1, prm)
			requireRows(t, fmt.Sprintf("round %d: hosts=%d elems=%d %s serial", i, hosts, prm.Elems, op), base.PerHost, want)
			for _, parts := range []int{2, 4} {
				for _, d := range pinnedDispatch {
					got := fatRunPinned(op, true, hosts, parts, prm, d)
					label := fmt.Sprintf("round %d: hosts=%d elems=%d %s parts=%d dispatch=%v", i, hosts, prm.Elems, op, parts, d)
					requireRows(t, label, got.PerHost, want)
					if got.Latency != base.Latency {
						t.Errorf("%s: latency %v, serial %v", label, got.Latency, base.Latency)
					}
				}
			}
		}
	}
}

func TestParseOp(t *testing.T) {
	// Reduce and ReduceScatter run through the reduce sweep, not -collective.
	for _, op := range []Op{Allreduce, Barrier, Scatter, Gather, KeyAgg} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if got, err := ParseOp(""); err != nil || got != Allreduce {
		t.Fatalf("ParseOp(\"\") = %v, %v", got, err)
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Fatal("ParseOp accepted bogus op")
	}
}

package collsweep

import (
	"encoding/json"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/metrics"
	"activesan/internal/sim"
	"activesan/internal/telemetry"
)

func smallParams() Params {
	prm := DefaultParams()
	prm.HostCounts = []int{4, 16}
	prm.Budgets = []int{2, 8, 64}
	return prm
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Partitioned engines must not change a byte of the result either: the
// whole sweep through the run config's Parts, under the default dispatch,
// and then each point again with concurrent dispatch pinned, so the race
// detector sees every round's windows overlap however narrow they are.
func TestSweepByteIdenticalAcrossPartitions(t *testing.T) {
	prm := smallParams()
	serial := prm.Env
	a := marshal(t, RunAll(prm))
	for _, parts := range []int{2, 4} {
		prm.Env.Topology.Parts = parts
		if b := marshal(t, RunAll(prm)); a != b {
			t.Fatalf("serial and %d-partition sweeps differ:\n%s\n%s", parts, a, b)
		}
		pinned := func(hosts int) (*cluster.Cluster, *telemetry.Recorder) {
			c, rec := newCluster(prm.Env, hosts)
			c.Group.SetDispatch(sim.DispatchConcurrent)
			return c, rec
		}
		for _, hosts := range prm.HostCounts {
			for _, active := range []bool{false, true} {
				want := marshal(t, RunPoint(serial, prm.Op, hosts, active, prm.Coll))
				c, rec := pinned(hosts)
				if got := marshal(t, pointOn(c, rec, prm.Op, hosts, active, prm.Coll)); got != want {
					t.Fatalf("%d hosts active=%v: %d partitions with concurrent dispatch differ from serial:\n%s\n%s",
						hosts, active, parts, got, want)
				}
			}
		}
		// Budget 0 is the host-shuffle reference.
		for _, budget := range append([]int{0}, prm.Budgets...) {
			want := marshal(t, RunBudgetPoint(serial, prm.AggHosts, budget, budget > 0, prm.Coll))
			c, rec := pinned(prm.AggHosts)
			if got := marshal(t, budgetPointOn(c, rec, prm.AggHosts, budget, budget > 0, prm.Coll)); got != want {
				t.Fatalf("budget %d: %d partitions with concurrent dispatch differ from serial:\n%s\n%s",
					budget, parts, got, want)
			}
		}
	}
}

// The headline acceptance point: at 64 hosts the active allreduce must beat
// the recursive-doubling baseline on latency and cut host I/O by >= 2x.
func TestAllreduce64HostAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("64-host point is not -short")
	}
	prm := collective.DefaultParams()
	pas := RunPoint(DefaultParams().Env, collective.Allreduce, 64, false, prm)
	act := RunPoint(DefaultParams().Env, collective.Allreduce, 64, true, prm)
	if !pas.Correct || !act.Correct {
		t.Fatalf("incorrect result: passive ok=%v active ok=%v", pas.Correct, act.Correct)
	}
	if act.Latency >= pas.Latency {
		t.Errorf("no speedup at 64 hosts: active %v vs passive %v", act.Latency, pas.Latency)
	}
	if ratio := float64(pas.HostBytes) / float64(act.HostBytes); ratio < 2 {
		t.Errorf("host I/O reduction %.2fx at 64 hosts, want >= 2x (active %d B, passive %d B)",
			ratio, act.HostBytes, pas.HostBytes)
	}
}

// Every budget point's ledger must balance, the spill count must fall as
// the table grows, and the cliff edges must behave: heavy spilling at
// budget 1, none once the whole key space is resident.
func TestBudgetSweepLedger(t *testing.T) {
	prm := collective.DefaultParams()
	var prev int64 = -1
	for _, b := range []int{1, 4, 16, 64, 128} {
		pt := RunBudgetPoint(DefaultParams().Env, 16, b, true, prm)
		if !pt.Correct {
			t.Errorf("budget=%d: incorrect result", b)
		}
		if !pt.Balanced {
			t.Errorf("budget=%d: ledger unbalanced: hits=%d spills=%d ingested=%d",
				b, pt.Hits, pt.Spills, pt.Ingested)
		}
		if prev >= 0 && pt.Spills > prev {
			t.Errorf("budget=%d: spills rose to %d from %d at the smaller budget", b, pt.Spills, prev)
		}
		prev = pt.Spills
		if b == 1 && pt.Spills == 0 {
			t.Error("budget=1: no spills with 64 keys in flight")
		}
		if b >= prm.Keys && pt.Spills != 0 {
			t.Errorf("budget=%d: %d spills with the whole key space resident", b, pt.Spills)
		}
		if pt.Metrics.Get("collective/agg_hits") != float64(pt.Hits) {
			t.Errorf("budget=%d: snapshot hits %v != %d", b, pt.Metrics.Get("collective/agg_hits"), pt.Hits)
		}
	}
}

// Collectives must carry telemetry stamps: with a recorder attached, the
// per-hop histograms decompose the active allreduce's latency.
func TestTelemetryDecomposesCollective(t *testing.T) {
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(16), 1)
	rec := telemetry.NewRecorder(nil)
	rec.Attach(c)
	r := collective.RunOn(c, collective.Allreduce, true, 16, collective.DefaultParams())
	if !r.Correct {
		t.Fatal("allreduce incorrect under telemetry")
	}
	snap := metrics.NewSnapshot()
	rec.Into(snap)
	if snap.Get("telemetry/completed") == 0 {
		t.Fatal("no stamped packets completed")
	}
	for _, k := range []string{"telemetry/e2e/p99", "telemetry/hop/wire/count", "telemetry/hop/queue/count"} {
		if _, ok := snap.Values[k]; !ok {
			t.Errorf("missing %s in the telemetry fold", k)
		}
	}
}

package collsweep

import (
	"encoding/json"
	"strings"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/telemetry"
)

func smallParams() Params {
	prm := DefaultParams()
	prm.HostCounts = []int{4, 16}
	prm.Budgets = []int{2, 8, 64}
	return prm
}

// fat builds each point's minimal fat tree on the serial engine, as
// collsweep and scalesweep do; tel also arms telemetry, as latsweep does.
var (
	fat = FatTrees(apps.Env{})
	tel = apps.Env{Telemetry: true, Topology: cluster.Topo{FatTree: true}}
)

// budgeted is prm with the key-aggregation table sized to budget.
func budgeted(prm collective.Params, budget int) collective.Params {
	prm.AggBudget = budget
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

// pinned builds the point RunPoint would under env, with the partitioned
// group's dispatch pinned to concurrent, so the race detector sees every
// round's windows overlap however narrow they are.
func pinned(env apps.Env, hosts int) (*cluster.Cluster, *telemetry.Recorder) {
	c := cluster.BuildCollective(hosts, env.Topology)
	_, rec := env.Arm(c)
	c.Group.SetDispatch(sim.DispatchConcurrent)
	return c, rec
}

// Partitioned engines must not change a byte of the result either: the
// whole sweep through the run config's Parts, under the default dispatch,
// and then each point again with concurrent dispatch pinned.
func TestSweepByteIdenticalAcrossPartitions(t *testing.T) {
	prm := smallParams()
	a := marshal(t, RunAll(prm))
	for _, parts := range []int{2, 4} {
		prm.Env.Topology.Parts = parts
		if b := marshal(t, RunAll(prm)); a != b {
			t.Fatalf("serial and %d-partition sweeps differ:\n%s\n%s", parts, a, b)
		}
		env := FatTrees(prm.Env)
		for _, hosts := range prm.HostCounts {
			for _, active := range []bool{false, true} {
				want := marshal(t, RunPoint(fat, prm.Op, hosts, active, prm.Coll))
				c, rec := pinned(env, hosts)
				if got := marshal(t, pointOn(c, rec, prm.Op, hosts, active, prm.Coll)); got != want {
					t.Fatalf("%d hosts active=%v: %d partitions with concurrent dispatch differ from serial:\n%s\n%s",
						hosts, active, parts, got, want)
				}
			}
		}
		// Budget 0 is the host-shuffle reference.
		for _, budget := range append([]int{0}, prm.Budgets...) {
			coll := budgeted(prm.Coll, budget)
			want := marshal(t, RunPoint(fat, collective.KeyAgg, prm.AggHosts, budget > 0, coll))
			c, rec := pinned(env, prm.AggHosts)
			if got := marshal(t, pointOn(c, rec, collective.KeyAgg, prm.AggHosts, budget > 0, coll)); got != want {
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
	pas := RunPoint(fat, collective.Allreduce, 64, false, prm)
	act := RunPoint(fat, collective.Allreduce, 64, true, prm)
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
		pt := RunPoint(fat, collective.KeyAgg, 16, true, budgeted(prm, b))
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

// TestActiveCutsHostIOAt64Hosts is scalesweep's headline acceptance check:
// a 64-host fat-tree reduction completes correctly in both variants and
// the active configuration moves strictly fewer bytes across host NICs
// than the passive MST — the paper's core claim, held at scale.
func TestActiveCutsHostIOAt64Hosts(t *testing.T) {
	if testing.Short() {
		t.Skip("64-host fat tree (80 switches)")
	}
	prm := collective.DefaultParams()
	active := RunPoint(fat, collective.Reduce, 64, true, prm)
	passive := RunPoint(fat, collective.Reduce, 64, false, prm)
	if !active.Correct || !passive.Correct {
		t.Fatalf("incorrect reduction: active ok=%v, passive ok=%v", active.Correct, passive.Correct)
	}
	if k := cluster.MinFatTreeK(64); k != 8 || active.Switches != 80 {
		t.Errorf("64 hosts built k=%d with %d switches, want k=8 with 80", k, active.Switches)
	}
	if active.HostBytes >= passive.HostBytes {
		t.Errorf("active host I/O %d B >= passive %d B: in-network aggregation saved nothing",
			active.HostBytes, passive.HostBytes)
	}
	if active.Latency >= passive.Latency {
		t.Errorf("active latency %v >= passive %v", active.Latency, passive.Latency)
	}
}

// TestHostIOSavingGrowsWithScale checks the scaling shape: the passive MST
// moves ~log2(p) vectors per host while active moves one up and at most one
// down, so the byte ratio must widen as hosts grow.
func TestHostIOSavingGrowsWithScale(t *testing.T) {
	prm := collective.DefaultParams()
	counts := []int{4, 16}
	if !testing.Short() {
		counts = append(counts, 64)
	}
	prev := 0.0
	for _, p := range counts {
		a := RunPoint(fat, collective.Reduce, p, true, prm)
		b := RunPoint(fat, collective.Reduce, p, false, prm)
		ratio := float64(b.HostBytes) / float64(a.HostBytes)
		if ratio <= prev {
			t.Errorf("p=%d: passive/active byte ratio %.3f did not grow (prev %.3f)", p, ratio, prev)
		}
		prev = ratio
	}
}

// TestEveryPointCorrect runs a shrunk scalesweep and requires the oracle
// check to pass at every point (no INCORRECT notes).
func TestEveryPointCorrect(t *testing.T) {
	res := ScaleSweep(apps.Env{}, []int{4, 8, 16}, collective.DefaultParams())
	for _, n := range res.Notes {
		if strings.Contains(n, "INCORRECT") {
			t.Errorf("sweep note: %s", n)
		}
	}
	if len(res.Series) != 5 {
		t.Errorf("%d series, want 5 (two latency, two host-byte, speedup)", len(res.Series))
	}
}

// TestSerialVsPartitionedByteIdentity is the determinism contract at the
// sweep's own level: one point measured through the serial engine and
// through 2 and 4 partitions must agree on every field — virtual latency,
// host bytes, correctness — not approximately but exactly. Any conservatism
// bug in the partition barriers (a message injected late, a reordered
// same-time pair) shows up here as a latency or byte diff. Each partitioned
// point runs once through the run config's Parts, under the default
// dispatch, and once more with concurrent dispatch pinned, so the race
// detector sees every round's windows overlap however narrow they are.
func TestSerialVsPartitionedByteIdentity(t *testing.T) {
	hosts := 64
	if testing.Short() {
		hosts = 16
	}
	prm := collective.DefaultParams()
	for _, active := range []bool{false, true} {
		pt := RunPoint(fat, collective.Reduce, hosts, active, prm)
		if !pt.Correct {
			t.Fatalf("active=%v: serial point incorrect", active)
		}
		want := marshal(t, pt)
		for _, parts := range []int{2, 4} {
			env := fat
			env.Topology.Parts = parts
			if got := marshal(t, RunPoint(env, collective.Reduce, hosts, active, prm)); got != want {
				t.Errorf("active=%v partitions=%d diverges from serial:\n got %s\nwant %s",
					active, parts, got, want)
			}
			c, rec := pinned(env, hosts)
			if got := marshal(t, pointOn(c, rec, collective.Reduce, hosts, active, prm)); got != want {
				t.Errorf("active=%v partitions=%d concurrent dispatch diverges from serial:\n got %s\nwant %s",
					active, parts, got, want)
			}
		}
	}
}

func TestRunPointPopulatesTelemetry(t *testing.T) {
	pt := RunPoint(tel, collective.Reduce, 8, true, collective.DefaultParams())
	if !pt.Correct {
		t.Fatal("active reduce incorrect")
	}
	if pt.Packets == 0 {
		t.Fatal("no completed packets recorded")
	}
	m := pt.Metrics
	if m.Get("telemetry/e2e/count") == 0 || m.Get("telemetry/e2e/p99") == 0 {
		t.Fatalf("e2e histogram empty: count=%g p99=%g",
			m.Get("telemetry/e2e/count"), m.Get("telemetry/e2e/p99"))
	}
	// The active variant must execute the combine handler in-fabric.
	if m.Get("telemetry/path/active/packets") == 0 {
		t.Error("active run shows no active-message path breakdown")
	}
	var hopTotal int64
	for k := san.HopKind(0); k < san.NumHopKinds; k++ {
		hopTotal += pt.HopPs[k]
	}
	if hopTotal == 0 {
		t.Error("per-hop decomposition sums to zero")
	}
}

func TestPassiveRunsNoHandler(t *testing.T) {
	pt := RunPoint(tel, collective.Reduce, 8, false, collective.DefaultParams())
	if !pt.Correct {
		t.Fatal("passive reduce incorrect")
	}
	if got := pt.Metrics.Get("telemetry/path/active/packets"); got != 0 {
		t.Fatalf("passive run completed %g active messages, want 0", got)
	}
	if pt.HopPs[san.HopHandler] != 0 {
		t.Fatalf("passive run spent %d ps in handlers", pt.HopPs[san.HopHandler])
	}
}

func TestActiveBeatsPassiveAtScale(t *testing.T) {
	// The paper's path-length argument, measured: at 16 hosts the active
	// tree's p99 end-to-end latency beats the host MST's.
	prm := collective.DefaultParams()
	pass := RunPoint(tel, collective.Reduce, 16, false, prm)
	act := RunPoint(tel, collective.Reduce, 16, true, prm)
	pp, ap := pass.Metrics.Get("telemetry/e2e/p99"), act.Metrics.Get("telemetry/e2e/p99")
	if pp == 0 || ap == 0 {
		t.Fatalf("p99 missing: passive=%g active=%g", pp, ap)
	}
	if ap >= pp {
		t.Fatalf("active p99 %g >= passive p99 %g at 16 hosts", ap, pp)
	}
}

// latsweep's runs report the host traffic of the same simulations
// scalesweep measures: telemetry moves neither bytes nor latency.
func TestLatsweepReportsHostTraffic(t *testing.T) {
	hosts, prm := []int{4, 8, 16}, collective.DefaultParams()
	lat := LatSweep(apps.Env{}, hosts, prm)
	scale := ScaleSweep(apps.Env{}, hosts, prm)
	for i, p := range hosts {
		for v, variant := range []string{"passive", "active"} {
			run := lat.Runs[2*i+v]
			want := scale.Series[2+v] // "passive host bytes", "active host bytes"
			if run.Traffic == 0 || float64(run.Traffic) != want.Y[i] {
				t.Errorf("p=%d %s: latsweep traffic %d B, scalesweep %s %g B",
					p, variant, run.Traffic, want.Name, want.Y[i])
			}
		}
	}
}

func TestShapeReduceSpeedupGrows(t *testing.T) {
	// Paper Figures 15/16: the active switch tree scales as log_{N/2}(p)
	// vs the MST's log_2(p), so speedup grows with node count and is
	// substantial at 128 nodes.
	if testing.Short() {
		t.Skip("sweeps up to 128 nodes")
	}
	prm := collective.DefaultParams()
	for _, op := range []collective.Op{collective.Reduce, collective.ReduceScatter} {
		speedup := func(p int) float64 {
			rn := collective.Run(apps.Env{}, op, false, p, prm)
			ra := collective.Run(apps.Env{}, op, true, p, prm)
			return float64(rn.Latency) / float64(ra.Latency)
		}
		s16 := speedup(16)
		s64 := speedup(64)
		s128 := speedup(128)
		if !(s64 > s16) || !(s128 > s16) {
			t.Errorf("%s: speedup not growing: s16=%.2f s64=%.2f s128=%.2f", op, s16, s64, s128)
		}
		if s128 < 2.0 {
			t.Errorf("%s: speedup at 128 nodes = %.2f, want well above 2", op, s128)
		}
	}
}

func TestActiveBeatsLowerBoundAtScale(t *testing.T) {
	// The paper's point: the active reduction beats ceil(log2 p)(a+l), the
	// host-side lower bound. Approximate a+l by the measured p=2 normal
	// latency (one round) and check at p=64.
	prm := collective.DefaultParams()
	oneRound := collective.Run(apps.Env{}, collective.Reduce, false, 2, prm).Latency
	bound := 6 * oneRound // ceil(log2 64) = 6 rounds
	got := collective.Run(apps.Env{}, collective.Reduce, true, 64, prm).Latency
	if got >= bound {
		t.Errorf("active latency %v does not beat MST lower bound %v", got, bound)
	}
}

func TestSweepSeries(t *testing.T) {
	for _, op := range []collective.Op{collective.Reduce, collective.ReduceScatter, collective.Allreduce} {
		res := Sweep(apps.Env{Parallel: 2}, op, []int{2, 8, 32}, collective.DefaultParams())
		if len(res.Series) != 3 {
			t.Fatalf("%s: series = %d, want 3 (normal, active, speedup)", op, len(res.Series))
		}
		for _, s := range res.Series[:2] {
			if len(s.X) != 3 {
				t.Fatalf("%s: series %q has %d points", op, s.Name, len(s.X))
			}
			for _, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s: series %q has non-positive latency", op, s.Name)
				}
			}
		}
		for _, n := range res.Notes {
			if strings.Contains(n, "INCORRECT") {
				t.Fatalf("%s: sweep recorded incorrect results: %s", op, n)
			}
		}
	}
}

func TestReduceToAll(t *testing.T) {
	// The paper: "the results for Reduce-to-all are similar to those for
	// Reduce-to-one". Reduce-to-all is the allreduce, whose multicast
	// fan-out keeps the active latency within ~2x of reduce-to-one.
	prm := collective.DefaultParams()
	one := collective.Run(apps.Env{}, collective.Reduce, true, 16, prm)
	all := collective.Run(apps.Env{}, collective.Allreduce, true, 16, prm)
	if !one.Correct || !all.Correct {
		t.Fatalf("reduce-to-one ok=%v, reduce-to-all ok=%v", one.Correct, all.Correct)
	}
	if all.Latency > 2*one.Latency {
		t.Errorf("reduce-to-all (%v) not similar to reduce-to-one (%v)", all.Latency, one.Latency)
	}
}

func TestPipelinedReductions(t *testing.T) {
	// Back-to-back reductions overlap across tree levels — "the switch can
	// overlap the switch CPU execution with its duties as a normal switch"
	// — so the amortized per-round time of 16 rounds must beat the
	// isolated latency, and every round's result must be exact.
	prm := collective.DefaultParams()
	const p = 32
	isolated := collective.Run(apps.Env{}, collective.Reduce, true, p, prm).Latency
	res := collective.RunPipelined(apps.Env{}, p, 16, prm)
	if !res.Correct {
		t.Fatal("pipelined rounds produced wrong results")
	}
	if res.PerRound >= isolated {
		t.Fatalf("pipelining gained nothing: per-round %v vs isolated %v", res.PerRound, isolated)
	}
	prm.Operator = collective.Max
	if !collective.RunPipelined(apps.Env{}, p, 4, prm).Correct {
		t.Fatal("pipelined max rounds produced wrong results")
	}
}

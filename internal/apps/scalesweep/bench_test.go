package scalesweep

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// The partition-engine benchmarks compare the same fat-tree collective
// through the serial engine and the partitioned Group. Cluster construction
// and teardown sit outside the timer; `run-ns/op` (reported via
// b.ReportMetric and tracked in BENCH_engine.json) is the Engine.Run /
// Group.Run call alone — the number PERFORMANCE.md quotes.
//
// Partitioned points run under inline dispatch (sim.DispatchInline) so the
// busy-time accounting is exact on any host, and additionally report
// `proj-ns/op`:
// the projected wall clock with one core per partition (measured run time
// minus total engine work plus the per-round critical path — see
// Group.CriticalPath). On a single-core CI runner the measured run-ns/op of
// a partitioned point is roughly the serial cost plus barrier overhead;
// proj-ns/op is the speedup figure. The recorded >=3x at 256 hosts and 4
// partitions comes from the Exchange pair below (the reduce collective is
// latency-bound — a dependency chain through the aggregation tree — and
// only reaches ~2x at 4 ranks); the regression floor is asserted in
// TestPartitionSpeedupProjection at the 1024-host point. The *Parts2 pairs
// further down measure instead of project: they run the default dispatch
// on the machine's real cores.
func benchPoint(b *testing.B, hosts, parts int) {
	prm := DefaultParams().Reduce
	var run, proj []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
		if c.Group != nil {
			c.Group.SetDispatch(sim.DispatchInline)
		}
		// Collect outside the timed region so a GC pause from the previous
		// iteration's garbage doesn't land inside one rank's window and
		// inflate the per-round critical path.
		runtime.GC()
		b.StartTimer()
		r := collective.RunOn(c, collective.Reduce, true, hosts, prm)
		b.StopTimer()
		if !r.Correct {
			b.Fatalf("incorrect reduction at %d hosts, %d partitions", hosts, parts)
		}
		run = append(run, r.EngineWall)
		if c.Group != nil {
			proj = append(proj, r.EngineWall-c.Group.BusyTime()+c.Group.CriticalPath())
		}
		b.StartTimer()
	}
	// Medians, not means: one descheduled window would otherwise skew the
	// recorded baseline the alloc/timing gates compare against.
	b.ReportMetric(float64(medianDur(run).Nanoseconds()), "run-ns/op")
	if parts > 1 {
		b.ReportMetric(float64(medianDur(proj).Nanoseconds()), "proj-ns/op")
	}
}

func BenchmarkReduce256Serial(b *testing.B)  { benchPoint(b, 256, 1) }
func BenchmarkReduce256Parts4(b *testing.B)  { benchPoint(b, 256, 4) }
func BenchmarkReduce1024Serial(b *testing.B) { benchPoint(b, 1024, 1) }
func BenchmarkReduce1024Parts8(b *testing.B) { benchPoint(b, 1024, 8) }

// reduce1024 runs the active reduce on a fresh 1024-host fat tree at parts
// partitions under the given dispatch, and reports its engine wall time and
// how many barrier rounds went to the worker goroutines.
func reduce1024(tb testing.TB, parts int, d sim.Dispatch) (time.Duration, int64) {
	const hosts = 1024
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
	if c.Group != nil {
		c.Group.SetDispatch(d)
	}
	runtime.GC()
	r := collective.RunOn(c, collective.Reduce, true, hosts, DefaultParams().Reduce)
	if !r.Correct {
		tb.Fatalf("incorrect reduction at %d hosts, %d partitions", hosts, parts)
	}
	if c.Group == nil {
		return r.EngineWall, 0
	}
	return r.EngineWall, c.Group.ConcurrentRounds()
}

// benchMeasured runs b.N back-to-back pairs of one workload, serially and on
// 2 partitions under the default (adaptive) dispatch, and reports the
// partitioned run's median wall as `run-ns/op`, its deterministic
// `concurrent-rounds`, and `measured-speedup-x`: the median over pairs of
// serial wall divided by partitioned wall. Unlike proj-ns/op this is the
// real speedup on the machine's cores, overlap and barrier both included.
func benchMeasured(b *testing.B, run func(parts int) (time.Duration, int64)) {
	var walls []time.Duration
	var ratios []float64
	var conc int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := run(1)
		p, n := run(2)
		walls = append(walls, p)
		ratios = append(ratios, float64(s)/float64(p))
		conc = n
	}
	sort.Float64s(ratios)
	b.ReportMetric(float64(medianDur(walls).Nanoseconds()), "run-ns/op")
	b.ReportMetric(float64(conc), "concurrent-rounds")
	b.ReportMetric(ratios[len(ratios)/2], "measured-speedup-x")
}

// BenchmarkReduce1024Parts2 measures the latency-bound reduce at 1024 hosts
// on 2 partitions: a handful of wide rounds carry the win.
func BenchmarkReduce1024Parts2(b *testing.B) {
	benchMeasured(b, func(parts int) (time.Duration, int64) { return reduce1024(b, parts, sim.DispatchAdaptive) })
}

// BenchmarkExchange256Parts2 measures the neighbor exchange at 256 hosts on
// 2 partitions, whose windows mostly hold fewer events than the adaptive
// threshold.
func BenchmarkExchange256Parts2(b *testing.B) {
	benchMeasured(b, func(parts int) (time.Duration, int64) {
		x := runExchange(256, 16, parts, sim.DispatchAdaptive)
		return x.run, x.conc
	})
}

// TestReduce1024DispatchesWideRounds pins how many rounds of the 1024-host
// reduce on 2 partitions adaptive dispatch sends to the workers. The count
// is a pure function of the workload; these are the rounds that give the
// partitioned run its measured win, so losing them is a regression.
func TestReduce1024DispatchesWideRounds(t *testing.T) {
	const want = 6
	if _, n := reduce1024(t, 2, sim.DispatchAdaptive); n != want {
		t.Fatalf("adaptive dispatch sent %d rounds to the workers, want %d", n, want)
	}
}

// runExchange drives a bulk-synchronous neighbor exchange: every host sends
// a 4 KB message each round, to its edge-switch neighbor (i XOR 1) on most
// rounds and across the fabric (i + hosts/2) every sixteenth — the
// mostly-partition-local traffic pattern the pod-boundary cut is designed
// for, with enough cross-cut flow to keep the lookahead machinery honest.
//
// The tree is k=16, not the minimal k=12 DefaultFatTreeConfig would pick:
// 256 hosts fill exactly four 64-host pods, so at 4 partitions each rank
// owns one full pod and the per-round load is balanced. On the minimal
// tree the hosts span 7.1 pods and one rank ends up with 40 hosts against
// the others' 72, which caps the critical-path speedup near 2.9x for
// reasons that have nothing to do with the engine.
//
// A partitioned run uses dispatch d.
func runExchange(hosts, k, parts int, d sim.Dispatch) exchangeResult {
	cfg := cluster.DefaultFatTreeConfig(hosts)
	if k > 0 {
		cfg.K = k
		cfg.Switch = aswitch.DefaultConfig(k)
	}
	c := cluster.NewPartitionedFatTreeCluster(cfg, parts)
	defer c.Shutdown()
	if c.Group != nil {
		c.Group.SetDispatch(d)
	}
	c.Start()
	// Flows number from 1: nic.Post reads flow 0 as a request for a fresh
	// flow id, which would leave the receiver waiting on flow 0 forever.
	flow := func(r, i int) int64 { return int64(r*hosts + i + 1) }
	done := make([]int, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		h := c.Host(i)
		c.EngineFor(h.ID()).Spawn(fmt.Sprintf("ex%d", i), func(p *sim.Proc) {
			for r := 0; r < exchangeRounds; r++ {
				partner := i ^ 1
				if r%16 == 15 {
					partner = (i + hosts/2) % hosts
				}
				h.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: c.Host(partner).ID(), Type: san.Data, Flow: flow(r, i)},
					Size: 4 << 10,
				}, 0)
				h.RecvFlow(p, c.Host(partner).ID(), flow(r, partner))
				done[i]++
			}
		})
	}
	var x exchangeResult
	z := time.Now()
	x.end = c.Run()
	x.run = time.Since(z)
	if c.Group != nil {
		x.busy = c.Group.BusyTime()
		x.proj = x.run - x.busy + c.Group.CriticalPath()
		x.evTotal, x.evCrit = c.Group.EventsTotal(), c.Group.EventsCritical()
		x.conc = c.Group.ConcurrentRounds()
	}
	for _, n := range done {
		if n == exchangeRounds {
			x.finished++
		}
	}
	return x
}

// exchangeRounds is how many rounds runExchange runs.
const exchangeRounds = 32

// exchangeResult is one runExchange: the Engine/Group Run wall; when
// partitioned, the busy-time projection, the noise-robust inputs of
// BenchmarkExchangeSpeedup256 (busy wall and deterministic event counts) and
// the rounds run on the workers; the simulated end time; and how many hosts
// finished every round.
type exchangeResult struct {
	run, busy, proj time.Duration
	evTotal, evCrit int64
	conc            int64
	end             sim.Time
	finished        int
}

func benchExchange(b *testing.B, hosts, k, parts int) {
	var runs, projs []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		x := runExchange(hosts, k, parts, sim.DispatchInline)
		b.StopTimer()
		runs = append(runs, x.run)
		if parts > 1 {
			projs = append(projs, x.proj)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(medianDur(runs).Nanoseconds()), "run-ns/op")
	if parts > 1 {
		b.ReportMetric(float64(medianDur(projs).Nanoseconds()), "proj-ns/op")
	}
}

func BenchmarkExchange256Serial(b *testing.B) { benchExchange(b, 256, 16, 1) }
func BenchmarkExchange256Parts4(b *testing.B) { benchExchange(b, 256, 16, 4) }

// BenchmarkExchangeSpeedup256 records the acceptance figure directly as
// `speedup-x`. The wall-clock critical path is too noise-sensitive to gate
// on: an OS preemption inside any one of the ~1200 rank windows lands
// entirely in that round's per-rank maximum, and across a run those hits
// deflate the measured ratio by 20-30% (observed: the same workload swung
// 2.8x-3.6x between invocations, even with serial and partitioned runs
// paired back-to-back). So the projection here uses the deterministic
// event-count parallelism instead — EventsTotal/EventsCritical is a pure
// function of the workload — and takes only long-interval wall measurements,
// which average preemption noise instead of amplifying it:
//
//	projected = serial/parallelism + (partitioned run - busy)   [barrier cost]
//	speedup   = serial / projected
//
// A preemption during a window inflates the partitioned run and busy
// equally, so the barrier term also cancels it.
func BenchmarkExchangeSpeedup256(b *testing.B) {
	var ratios []float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		s := runExchange(256, 16, 1, sim.DispatchInline)
		runtime.GC()
		p := runExchange(256, 16, 4, sim.DispatchInline)
		projected := time.Duration(float64(s.run)*float64(p.evCrit)/float64(p.evTotal)) + (p.run - p.busy)
		ratios = append(ratios, float64(s.run)/float64(projected))
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup-x")
}

// TestExchangeIdentity guards the benchmark's apples-to-apples claim: the
// exchange workload must simulate the identical event stream serially and
// partitioned, or the serial/projected comparison above is comparing two
// different runs. (A fully synchronized all-to-all burst CAN diverge — see
// the arbitration-tie boundary in PERFORMANCE.md — which is why the bench
// pattern spaces its cross-fabric rounds and why this test pins it.) Every
// host must also finish every round: an equal end time alone would not
// notice hosts that stall waiting on a message that never comes. The
// partitioned run repeats under pinned concurrent dispatch, so the race
// detector sees its windows overlap however narrow they are.
func TestExchangeIdentity(t *testing.T) {
	serial := runExchange(256, 16, 1, sim.DispatchAdaptive)
	if serial.finished != 256 {
		t.Fatalf("hosts finishing all %d rounds serially: %d of 256", exchangeRounds, serial.finished)
	}
	for _, d := range []sim.Dispatch{sim.DispatchAdaptive, sim.DispatchConcurrent} {
		part := runExchange(256, 16, 4, d)
		if serial.end != part.end {
			t.Fatalf("dispatch %v: exchange end time diverged: serial %v, 4 partitions %v", d, serial.end, part.end)
		}
		if part.finished != 256 {
			t.Fatalf("dispatch %v: hosts finishing all %d rounds at 4 partitions: %d of 256",
				d, exchangeRounds, part.finished)
		}
	}
}

// medianDur is a tiny helper for the projection test: simulation timing on
// shared runners is noisy, so acceptance uses the median of several reps.
func medianDur(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// TestPartitionSpeedupProjection is the perf acceptance gate for the
// partitioned engine at the headline point (1024 hosts, 8 partitions): the
// projected parallel run time — exact busy-time accounting under inline
// dispatch, see Group.CriticalPath — must beat the measured serial
// engine by a healthy margin. The recorded baseline (BENCH_engine.json,
// PERFORMANCE.md) shows >=3x; the test floor is 2x so scheduler noise on a
// loaded runner cannot flake it, while a real lost-parallelism regression
// (a horizon collapsing to micro-steps, a serialized round) still fails.
func TestPartitionSpeedupProjection(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat tree, several reps")
	}
	const hosts, parts, reps = 1024, 8, 3
	prm := DefaultParams().Reduce
	var serial, proj []time.Duration
	for i := 0; i < reps; i++ {
		c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), 1)
		r := collective.RunOn(c, collective.Reduce, true, hosts, prm)
		if !r.Correct {
			t.Fatal("incorrect serial reduction")
		}
		serial = append(serial, r.EngineWall)

		c = cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
		c.Group.SetDispatch(sim.DispatchInline)
		r = collective.RunOn(c, collective.Reduce, true, hosts, prm)
		if !r.Correct {
			t.Fatal("incorrect partitioned reduction")
		}
		proj = append(proj, r.EngineWall-c.Group.BusyTime()+c.Group.CriticalPath())
	}
	s, p := medianDur(serial), medianDur(proj)
	if p <= 0 {
		t.Fatalf("projection collapsed: serial %v, projected %v", s, p)
	}
	speedup := float64(s) / float64(p)
	t.Logf("1024 hosts: serial %v, projected %d-core %v -> %.2fx", s, parts, p, speedup)
	if speedup < 2.0 {
		t.Errorf("projected speedup %.2fx below the 2x regression floor (baseline shows >=3x)", speedup)
	}
}

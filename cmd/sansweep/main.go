// Command sansweep runs parameter sweeps beyond the paper's figures:
// reduction latency over arbitrary node counts, MD5 over switch-CPU counts,
// and parallel sort over node counts — the knobs a designer would turn when
// sizing an active-switch system.
//
// Usage:
//
//	sansweep -sweep reduce -kind dist -nodes 2,4,8,16,32,64,128
//	sansweep -sweep md5 -cpus 1,2,3,4
//	sansweep -sweep sort -hosts 2,4,8 -records 262144
//	sansweep -sweep collective -collective allreduce -nodes 4,16,64
//
// Sweep points are independent simulations, so they fan out over -parallel
// worker goroutines (default: GOMAXPROCS); output order is always the
// sequential order. A traced sweep (-trace-out or -flight-recorder) runs one
// point at a time, so its trace is the sequential sweep's too.
//
// -metrics-out collects each sweep point's secondary-metric snapshot into
// one JSON file keyed by point label; -trace-out streams typed trace events
// as a Chrome trace-event / Perfetto JSON file (see cmd/activesim).
//
// -telemetry arms per-packet per-hop telemetry on the md5 and collective
// sweeps' clusters (histograms land in the point snapshots);
// -flight-recorder keeps a bounded ring of recent trace events per
// component and dumps it on a crash (see OBSERVABILITY.md).
//
// -cpuprofile/-memprofile write pprof profiles of the sweep itself (see
// PERFORMANCE.md for the profiling workflow).
//
// -faults arms a JSON fault plan (see RELIABILITY.md) on the md5 and
// collective sweeps' clusters, with -fault-seed overriding the plan's PRNG
// seed — the knobs for sweeping reliability parameters instead of problem
// sizes. The trace sink (-trace-out, -flight-recorder) reaches every sweep.
//
// -topology switches the reduce sweep's cluster between the paper's
// reduction tree (the default) and a k-ary fat tree ("fattree" or
// "fattree:K" — see TOPOLOGIES.md), which -partitions then splits across
// simulation partitions (results are byte-identical), e.g.
//
//	sansweep -sweep reduce -nodes 4,16,64 -topology fattree
//
// -kind picks reduce-to-one (one), distributed reduce (dist) or
// reduce-to-all (all, the allreduce).
//
// -sweep collective compares each in-network collective (see
// COLLECTIVES.md) against its host-only reference over -nodes host counts;
// -collective picks the op (allreduce, barrier, scatter, gather, keyagg)
// and -agg-budget sizes the keyagg per-switch key table, e.g.
//
//	sansweep -sweep collective -collective keyagg -agg-budget 8 -nodes 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"activesan/internal/ablation"
	"activesan/internal/apps"
	"activesan/internal/apps/collsweep"
	"activesan/internal/apps/md5app"
	"activesan/internal/apps/psort"
	"activesan/internal/apps/twolevel"
	"activesan/internal/cliflags"
	"activesan/internal/collective"
	"activesan/internal/metrics"
	"activesan/internal/stats"
)

// recorder collects each sweep point's snapshot for -metrics-out, keyed by
// point label. Sweep points run on parallel goroutines, hence the lock. A
// nil recorder (no -metrics-out) records nothing.
type recorder struct {
	mu     sync.Mutex
	sweeps map[string]*metrics.Snapshot
}

func newRecorder() *recorder {
	return &recorder{sweeps: make(map[string]*metrics.Snapshot)}
}

// record stashes a run's snapshot under a sweep-point label; a run without
// a snapshot is skipped.
func (rec *recorder) record(label string, r stats.Run) {
	if rec == nil || r.Metrics == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.sweeps[label] = r.Metrics
}

// write flushes the recorded snapshots to path. It runs deferred —
// including after a crashed sweep, where a valid file holding the points
// that completed beats a missing one — so errors print instead of exiting.
func (rec *recorder) write(path string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	wrapper := struct {
		Paper  string                       `json:"paper"`
		Sweeps map[string]*metrics.Snapshot `json:"sweeps"`
	}{
		Paper:  "Active I/O Switches in System Area Networks (HPCA 2003)",
		Sweeps: rec.sweeps,
	}
	data, err := json.MarshalIndent(wrapper, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if err := cliflags.EnsureParent(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// parseInts parses a comma-separated list of positive integers, skipping
// empty elements. The error names the first bad element.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list element %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepLines evaluates one line of output per point through env.Runs and
// prints the lines in point order, so any -parallel value produces the
// same output as a sequential sweep. A panicking point (fault-plan crash
// under -strict-routes) is re-raised — first point first, for determinism
// — on the caller's goroutine, where the deferred output flushing can see
// it.
func sweepLines(points []int, env apps.Env, eval func(p int) string) {
	lines := make([]string, len(points))
	env.Runs(len(points),
		func(i int) string { return fmt.Sprintf("sweep point %d", points[i]) },
		func(i int) { lines[i] = eval(points[i]) })
	for _, l := range lines {
		fmt.Print(l)
	}
}

func main() { os.Exit(realMain()) }

// realMain is main with an exit code, so deferred cleanup (trace flush,
// flight-recorder dump, metrics write) runs before the process exits —
// even when the sweep crashes. Nothing below calls os.Exit directly once
// Setup has succeeded.
func realMain() int {
	sweep := flag.String("sweep", "reduce", "what to sweep: reduce | md5 | sort | collective | ablation | twolevel")
	kind := flag.String("kind", "one", "reduction kind: one | dist | all")
	nodes := flag.String("nodes", "2,4,8,16,32,64,128", "node counts for -sweep reduce")
	cpus := flag.String("cpus", "1,2,3,4", "switch CPU counts for -sweep md5")
	hosts := flag.String("hosts", "2,4,8", "host counts for -sweep sort")
	records := flag.Int64("records", 1<<18, "total records for -sweep sort")
	rounds := flag.Int("rounds", 0, "with -sweep reduce: pipeline this many back-to-back rounds")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep points (1 = sequential)")
	cf := cliflags.Register()
	flag.Parse()

	// The list the chosen sweep reads is parsed before Setup creates any
	// output file, so a bad element stops the command before it starts.
	var list, listFlag string
	switch *sweep {
	case "reduce", "collective":
		list, listFlag = *nodes, "nodes"
	case "md5":
		list, listFlag = *cpus, "cpus"
	case "sort":
		list, listFlag = *hosts, "hosts"
	}
	points, err := parseInts(list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sansweep: -%s: %v\n", listFlag, err)
		return 2
	}

	cfg, cleanup, err := cf.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sansweep:", err)
		return 2
	}
	defer cleanup()
	cfg.Env.Parallel = *parallel
	env := cfg.Env

	var rec *recorder
	if cf.MetricsOut != "" {
		rec = newRecorder()
		// Deferred so the early-returning reduce pipeline path writes too
		// (reduce sweeps build bare engines without stats.Run snapshots, so
		// their file is legitimately empty) — and so a crashed sweep still
		// flushes the points that completed.
		defer rec.write(cf.MetricsOut)
	}

	return cf.RunProtected(func() int {
		switch *sweep {
		case "ablation":
			fmt.Print(ablation.Report(env))

		case "twolevel":
			prm := twolevel.DefaultParams()
			prm.Env = env
			res := twolevel.RunAll(prm)
			for _, r := range res.Runs {
				rec.record("twolevel/"+r.Config, r)
			}
			fmt.Print(res.Format())

		case "reduce":
			op := collective.Reduce
			switch *kind {
			case "dist":
				op = collective.ReduceScatter
			case "all":
				op = collective.Allreduce
			}
			prm := collective.DefaultParams()
			if *rounds > 0 {
				// Like the sweep's, these clusters honour the trace sink
				// and strict routes only.
				env := collsweep.Observed(env)
				sweepLines(points, env, func(p int) string {
					iso := collsweep.RunPoint(env, collective.Reduce, p, true, prm).Latency
					c, _ := collsweep.Build(env, p)
					r := collective.RunPipelined(c, p, *rounds, prm)
					return fmt.Sprintf("p=%-4d rounds=%d total=%v per-round=%v isolated=%v correct=%v\n",
						p, *rounds, r.Total, r.PerRound, iso, r.Correct)
				})
				return 0
			}
			fmt.Print(collsweep.Sweep(env, op, points, prm).Format())

		case "md5":
			prm := md5app.DefaultParams()
			prm.Env = env
			normal := md5app.Run(apps.Normal, 1, prm)
			rec.record("md5/normal", normal)
			fmt.Printf("%-20s %v\n", "normal", normal.Time)
			sweepLines(points, env, func(c int) string {
				r := md5app.Run(apps.ActivePref, c, prm)
				rec.record(fmt.Sprintf("md5/%s/cpus=%d", r.Config, c), r)
				return fmt.Sprintf("%-20s %v  speedup %.2f\n", r.Config, r.Time,
					float64(normal.Time)/float64(r.Time))
			})

		case "collective":
			// -collective picks the op, -agg-budget the keyagg table size,
			// -partitions the engine layout; the points are minimal fat
			// trees, armed with every setting env carries.
			op := cfg.Collective
			env := collsweep.FatTrees(env)
			prm := collective.DefaultParams()
			prm.AggBudget = cfg.AggBudget
			sweepLines(points, env, func(p int) string {
				pas := collsweep.RunPoint(env, op, p, false, prm)
				act := collsweep.RunPoint(env, op, p, true, prm)
				rec.record(fmt.Sprintf("collective/%s/passive/p=%d", op, p),
					stats.Run{Config: "passive", Metrics: pas.Metrics})
				rec.record(fmt.Sprintf("collective/%s/active/p=%d", op, p),
					stats.Run{Config: "active", Metrics: act.Metrics})
				if op == collective.KeyAgg {
					state := "balanced"
					if !act.Balanced {
						state = "UNBALANCED"
					}
					return fmt.Sprintf("p=%-4d keyagg budget=%d: active=%v passive=%v hits=%d spills=%d (%s) host-bytes %d vs %d correct=%v\n",
						p, prm.AggBudget, act.Latency, pas.Latency, act.Hits, act.Spills, state,
						act.HostBytes, pas.HostBytes, act.Correct && pas.Correct)
				}
				return fmt.Sprintf("p=%-4d %s: active=%v passive=%v speedup %.2f host-bytes %d vs %d (%.2fx less) correct=%v\n",
					p, op, act.Latency, pas.Latency,
					float64(pas.Latency)/float64(act.Latency),
					act.HostBytes, pas.HostBytes,
					float64(pas.HostBytes)/float64(act.HostBytes),
					act.Correct && pas.Correct)
			})

		case "sort":
			sweepLines(points, env, func(hcount int) string {
				prm := psort.DefaultParams()
				prm.Hosts = hcount
				prm.Records = *records
				prm.Env = env
				n := psort.Run(apps.NormalPref, prm)
				a := psort.Run(apps.ActivePref, prm)
				rec.record(fmt.Sprintf("sort/%s/p=%d", n.Config, hcount), n)
				rec.record(fmt.Sprintf("sort/%s/p=%d", a.Config, hcount), a)
				limit := float64(hcount) / float64(3*hcount-2)
				return fmt.Sprintf("p=%-3d normal=%v active=%v traffic-ratio=%.3f (limit %.3f)\n",
					hcount, n.Time, a.Time, float64(a.Traffic)/float64(n.Traffic), limit)
			})

		default:
			fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *sweep)
			return 1
		}
		return 0
	})
}

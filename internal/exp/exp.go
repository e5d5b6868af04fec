// Package exp is the experiment registry: every table and figure of the
// paper's evaluation maps to a runnable experiment that regenerates its
// rows or series. Experiments accept a scale divisor so the full paper
// workloads (up to 16M records) can be shrunk for quick runs; shapes are
// scale-free, and scale 1 reproduces the paper's exact problem sizes.
package exp

import (
	"fmt"
	"strings"

	"activesan/internal/apps"
	"activesan/internal/apps/collsweep"
	"activesan/internal/apps/faultsweep"
	"activesan/internal/apps/grep"
	"activesan/internal/apps/hashjoin"
	"activesan/internal/apps/hdlsweep"
	"activesan/internal/apps/md5app"
	"activesan/internal/apps/mpeg"
	"activesan/internal/apps/psort"
	"activesan/internal/apps/sel"
	"activesan/internal/apps/tarapp"
	"activesan/internal/apps/twolevel"
	"activesan/internal/collective"
	"activesan/internal/hdl"
	"activesan/internal/stats"
)

// Config is everything that shapes one run of the registry: the scale
// divisor and the settings the command line passes to each experiment.
// Nothing else — no process-wide state — reaches a result, so runs under
// different configs can share a process.
type Config struct {
	// Scale divides the paper's problem sizes (1 = full size).
	Scale int64
	// Env reaches the clusters the experiments build. The trace sink and
	// strict routes reach every one; the topology the collective ones
	// (table2, fig15, fig16; its Parts also scalesweep and collsweep); the
	// fault plan and telemetry only the experiments built on apps.RunIO
	// (fig3, fig5, fig7, fig9, fig11, fig17, hdlsweep, faultsweep) and
	// collsweep. Each collective sweep sets its own reach (collsweep's
	// Sweep, ScaleSweep, LatSweep and RunAll). Its Parallel (-parallel;
	// < 1 selects runtime.GOMAXPROCS(0)) is how many independent
	// simulations of one experiment run at once: the four configurations
	// of fig3 to fig13, twolevel's modes, fig17's runs, hdlsweep's cases
	// and seeds, faultsweep's points (apps.Env.Runs decides).
	Env apps.Env
	// Collective is the op collsweep scales (-collective), and AggBudget
	// its keyagg per-switch table size (-agg-budget).
	Collective collective.Op
	AggBudget  int
	// Handler, when set, joins hdlsweep's built-in handlers (-handler-src).
	Handler *hdl.Compiled
}

// DefaultConfig is the config of a command line that sets only the scale.
func DefaultConfig(scale int64) Config {
	return Config{
		Scale:      scale,
		Collective: collective.Allreduce,
		AggBudget:  collective.DefaultParams().AggBudget,
	}
}

// Experiment is one paper artifact.
type Experiment struct {
	// ID is the registry key ("fig3", "table1", ...).
	ID string
	// Paper names the artifact ("Figure 3 and 4").
	Paper string
	// Title describes what it shows.
	Title string

	run func(cfg Config) *stats.Result
}

// Run executes the experiment at the given scale divisor (1 = the paper's
// full problem size) under DefaultConfig.
func (e Experiment) Run(scale int64) *stats.Result { return e.run(DefaultConfig(scale)) }

// RunConfig executes the experiment under cfg.
func (e Experiment) RunConfig(cfg Config) *stats.Result { return e.run(cfg) }

func clampScale(s int64) int64 {
	if s < 1 {
		return 1
	}
	return s
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{
		ID:    "table1",
		Paper: "Table 1",
		Title: "Applications and problem sizes",
		run:   runTable1,
	},
	{
		ID:    "fig3",
		Paper: "Figures 3 and 4",
		Title: "MPEG filter: performance and execution-time breakdown",
		run: func(cfg Config) *stats.Result {
			prm := mpeg.DefaultParams()
			prm.FileSize /= clampScale(cfg.Scale)
			if prm.FileSize < 128*1024 {
				prm.FileSize = 128 * 1024
			}
			prm.Env = cfg.Env
			return mpeg.RunAll(prm)
		},
	},
	{
		ID:    "fig5",
		Paper: "Figures 5 and 6",
		Title: "HashJoin with bit-vector filter: performance and breakdown",
		run: func(cfg Config) *stats.Result {
			prm := hashjoin.DefaultParams()
			s := clampScale(cfg.Scale)
			prm.RBytes /= s
			prm.SBytes /= s
			if prm.RBytes < 1<<20 {
				prm.RBytes = 1 << 20
			}
			if prm.SBytes < 4<<20 {
				prm.SBytes = 4 << 20
			}
			prm.Env = cfg.Env
			return hashjoin.RunAll(prm)
		},
	},
	{
		ID:    "fig7",
		Paper: "Figures 7 and 8",
		Title: "Select: performance and breakdown",
		run: func(cfg Config) *stats.Result {
			prm := sel.DefaultParams()
			prm.TableBytes /= clampScale(cfg.Scale)
			if prm.TableBytes < 4<<20 {
				prm.TableBytes = 4 << 20
			}
			prm.Env = cfg.Env
			return sel.RunAll(prm)
		},
	},
	{
		ID:    "fig9",
		Paper: "Figures 9 and 10",
		Title: "Grep: performance and breakdown",
		run: func(cfg Config) *stats.Result {
			// The paper's file is ~1.1 MB; no scaling needed.
			return grep.RunAll(cfg.Env)
		},
	},
	{
		ID:    "fig11",
		Paper: "Figures 11 and 12",
		Title: "Tar: performance and breakdown",
		run: func(cfg Config) *stats.Result {
			prm := tarapp.DefaultParams()
			s := clampScale(cfg.Scale)
			if s > 1 && prm.Files > 4 {
				prm.Files = int(int64(prm.Files) / min64(s, 4))
			}
			prm.Env = cfg.Env
			return tarapp.RunAll(prm)
		},
	},
	{
		ID:    "fig13",
		Paper: "Figures 13 and 14",
		Title: "Parallel sort (distribution phase): performance and breakdown",
		run: func(cfg Config) *stats.Result {
			prm := psort.DefaultParams()
			prm.Records /= clampScale(cfg.Scale)
			if prm.Records < 32<<10 {
				prm.Records = 32 << 10
			}
			prm.Env = cfg.Env
			return psort.RunAll(prm)
		},
	},
	{
		ID:    "table2",
		Paper: "Table 2",
		Title: "Collective reduction semantics (correctness demonstration)",
		run:   runTable2,
	},
	{
		ID:    "fig15",
		Paper: "Figure 15",
		Title: "Collective Reduce-to-one: latency vs node count",
		run: func(cfg Config) *stats.Result {
			return collsweep.Sweep(sequential(cfg.Env), collective.Reduce, sweepNodes(cfg.Scale), collective.DefaultParams())
		},
	},
	{
		ID:    "fig16",
		Paper: "Figure 16",
		Title: "Collective Distributed Reduce: latency vs node count",
		run: func(cfg Config) *stats.Result {
			return collsweep.Sweep(sequential(cfg.Env), collective.ReduceScatter, sweepNodes(cfg.Scale), collective.DefaultParams())
		},
	},
	{
		ID:    "fig17",
		Paper: "Figure 17",
		Title: "MD5 with 1, 2 and 4 switch CPUs",
		run: func(cfg Config) *stats.Result {
			prm := md5app.DefaultParams()
			prm.FileSize /= clampScale(cfg.Scale)
			if prm.FileSize < 64*1024 {
				prm.FileSize = 64 * 1024
			}
			prm.Env = cfg.Env
			return md5app.RunAll(prm)
		},
	},
	{
		ID:    "twolevel",
		Paper: "Extension (Section 6)",
		Title: "Two-level active I/O: active disks below active switches",
		run: func(cfg Config) *stats.Result {
			prm := twolevel.DefaultParams()
			prm.TableBytes /= clampScale(cfg.Scale)
			if prm.TableBytes < 4<<20 {
				prm.TableBytes = 4 << 20
			}
			prm.Env = cfg.Env
			return twolevel.RunAll(prm)
		},
	},
	{
		ID:    "scalesweep",
		Paper: "Extension (scale-out)",
		Title: "Reduce at scale on k-ary fat trees: active vs passive",
		run: func(cfg Config) *stats.Result {
			hosts := []int{4, 8, 16, 32, 64, 256, 1024}
			if clampScale(cfg.Scale) > 1 {
				hosts = []int{4, 8, 16}
			}
			return collsweep.ScaleSweep(sequential(cfg.Env), hosts, collective.DefaultParams())
		},
	},
	{
		ID:    "latsweep",
		Paper: "Extension (telemetry)",
		Title: "Per-hop latency decomposition: active vs passive reduce",
		run: func(cfg Config) *stats.Result {
			hosts := []int{4, 8, 16, 32, 64}
			if clampScale(cfg.Scale) > 1 {
				hosts = []int{4, 8, 16}
			}
			return collsweep.LatSweep(sequential(cfg.Env), hosts, collective.DefaultParams())
		},
	},
	{
		ID:    "hdlsweep",
		Paper: "Extension (handler authoring)",
		Title: "HDL handlers: compiled-on-switch vs host interpreter",
		run: func(cfg Config) *stats.Result {
			prm := hdlsweep.DefaultParams()
			prm.StreamBytes /= clampScale(cfg.Scale)
			if prm.StreamBytes < 16<<10 {
				prm.StreamBytes = 16 << 10
			}
			prm.Env, prm.Extra = cfg.Env, cfg.Handler
			return hdlsweep.RunAll(prm)
		},
	},
	{
		ID:    "faultsweep",
		Paper: "Extension (reliability)",
		Title: "MPEG filter under injected link loss, plus handler-crash fallback",
		run: func(cfg Config) *stats.Result {
			prm := mpeg.DefaultParams()
			prm.FileSize /= clampScale(cfg.Scale)
			if prm.FileSize < 128*1024 {
				prm.FileSize = 128 * 1024
			}
			prm.Env = cfg.Env
			return faultsweep.RunAll(prm)
		},
	},
	{
		ID:    "collsweep",
		Paper: "Extension (in-network collectives)",
		Title: "In-network collectives: allreduce scaling and the aggregation spill cliff",
		run: func(cfg Config) *stats.Result {
			prm := collsweep.DefaultParams()
			if clampScale(cfg.Scale) > 1 {
				// Keep the 64-host point: it is the acceptance anchor for
				// the active-vs-passive byte reduction.
				prm.HostCounts = []int{4, 16, 64}
				prm.Budgets = []int{2, 8, 32, 64}
			}
			prm.Env, prm.Op, prm.Coll.AggBudget = sequential(cfg.Env), cfg.Collective, cfg.AggBudget
			return collsweep.RunAll(prm)
		},
	},
}

// sequential returns env with its simulations run one at a time, the
// schedule the tree and fat-tree collective experiments keep (table2,
// fig15, fig16, scalesweep, latsweep, collsweep). Measured on perfbench's
// paper workload on a 2-vCPU VM: fanning out every collsweep point raised
// peak RSS from 14.9 to 17.6 MiB (+18%), with two of its fat-tree points
// of up to 64 hosts live at once; fanning out fig15's and fig16's points
// cut their traced time from 44 to 28 ms of a 1.1 s pass, which no
// wall-time median showed.
func sequential(env apps.Env) apps.Env {
	env.Parallel = 1
	return env
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// sweepNodes is fig15's and fig16's node counts: the paper's sweep
// (results shown up to 128 nodes), or its small end when scaled.
func sweepNodes(scale int64) []int {
	if clampScale(scale) > 1 {
		return []int{2, 4, 8, 16, 32}
	}
	return []int{2, 4, 8, 16, 32, 64, 128}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every experiment id in paper order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// runTable1 echoes the workload configuration, verifying each generator's
// size against the paper's Table 1.
func runTable1(Config) *stats.Result {
	res := &stats.Result{ID: "table1", Title: "Applications and problem sizes"}
	type row struct {
		app   string
		size  string
		check string
	}
	m := mpeg.DefaultParams()
	hj := hashjoin.DefaultParams()
	se := sel.DefaultParams()
	ta := tarapp.DefaultParams()
	ps := psort.DefaultParams()
	md := md5app.DefaultParams()
	rd := collective.DefaultParams()
	rows := []row{
		{"MPEG filter", fmt.Sprintf("%d B", m.FileSize), fmt.Sprintf("generated %d B, %.1f%% P-frames", m.FileSize, 100*float64(mpeg.PBytes(mpeg.BuildStream(m)))/float64(m.FileSize))},
		{"HashJoin", fmt.Sprintf("%dM x %dM", hj.RBytes>>20, hj.SBytes>>20), fmt.Sprintf("%d B records, %d-bit filter", hashjoin.RecordSize, hashjoin.BitvecBits)},
		{"Select", fmt.Sprintf("%dM", se.TableBytes>>20), fmt.Sprintf("%d B records", sel.RecordSize)},
		{"Grep", fmt.Sprintf("%d B", grep.FileSize), fmt.Sprintf("%d matching lines for %q", grep.Matches, grep.Pattern)},
		{"Tar", fmt.Sprintf("%dM", int64(ta.Files)*ta.FileSize>>20), fmt.Sprintf("%d files x %d KB", ta.Files, ta.FileSize>>10)},
		{"Parallel sort", fmt.Sprintf("%dM records", ps.Records>>20), fmt.Sprintf("%d B records, %d B keys, %d nodes", psort.RecordSize, psort.KeySize, ps.Hosts)},
		{"MD5", fmt.Sprintf("%dK", md.FileSize>>10), "K-chain interleave for multi-CPU"},
		{"Collective reduction", fmt.Sprintf("%d B", rd.VectorBytes), fmt.Sprintf("%d-element vectors, up to 128 nodes", rd.Elems)},
	}
	for _, r := range rows {
		res.Notes = append(res.Notes, fmt.Sprintf("%-22s %-16s %s", r.app, r.size, r.check))
	}
	return res
}

// runTable2 demonstrates the two reduction semantics of Table 2 and checks
// both against the oracle.
func runTable2(cfg Config) *stats.Result {
	res := &stats.Result{ID: "table2", Title: "Collective reduction semantics"}
	prm := collective.DefaultParams()
	const p = 8
	env := collsweep.Observed(sequential(cfg.Env))
	one := collsweep.RunPoint(env, collective.Reduce, p, true, prm)
	dist := collsweep.RunPoint(env, collective.ReduceScatter, p, true, prm)
	res.Notes = append(res.Notes,
		fmt.Sprintf("Reduce-to-one   (p=%d): y at node 0, latency %v, correct=%v", p, one.Latency, one.Correct),
		fmt.Sprintf("Distributed Red (p=%d): y_i at node i, latency %v, correct=%v", p, dist.Latency, dist.Correct),
		fmt.Sprintf("y[0..4] = %v", one.PerHost[0][:5]),
	)
	return res
}

// RunAll executes the whole registry under cfg, one experiment at a time
// in registry order; each experiment runs its own independent simulations
// cfg.Env.Width() at a time, so no more than that many are ever live. Each
// experiment builds its own engines, and results land in registry order,
// so the output is byte-identical at any -parallel width. A panic stops
// the loop at the failing experiment and propagates to the caller.
func RunAll(cfg Config) []*stats.Result {
	out := make([]*stats.Result, len(Registry))
	for i, e := range Registry {
		out[i] = e.run(cfg)
	}
	return out
}

// Shapes summarizes the paper-vs-measured headline numbers of a result;
// EXPERIMENTS.md and the CLI print these lines.
func Shapes(res *stats.Result) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	switch res.ID {
	case "fig3":
		add("normal+pref speedup %.2f (paper 1.13)", res.Speedup("normal+pref"))
		add("active speedup %.2f (paper 1.23)", res.Speedup("active"))
		add("active+pref speedup %.2f (paper 1.36)", res.Speedup("active+pref"))
		a, _ := res.Run("active")
		add("data to host reduced to %.1f%% (paper: 63.5%% of bytes are P-frames)",
			100*float64(a.Traffic)/float64(res.Baseline().Traffic))
	case "fig5":
		add("active speedup %.2f (paper 1.10)", res.Speedup("active"))
		np, _ := res.Run("normal+pref")
		ap, _ := res.Run("active+pref")
		add("prefetch parity %.2f (paper ~1.0)", float64(np.Time)/float64(ap.Time))
		add("host stall share %.1f%% -> %.1f%% (paper 27.6%% -> 16.1%%)",
			100*float64(np.HostStall)/float64(np.Time), 100*float64(ap.HostStall)/float64(ap.Time))
	case "fig7":
		a, _ := res.Run("active")
		np, _ := res.Run("normal+pref")
		add("traffic ratio %.2f (paper 0.25)", float64(a.Traffic)/float64(res.Baseline().Traffic))
		add("normal/active util ratio %.1fx (paper 21x)",
			(res.Baseline().HostUtil()+np.HostUtil())/(2*a.HostUtil()))
	case "fig9":
		add("active speedup %.2f (paper 1.14)", res.Speedup("active"))
	case "fig11":
		a, _ := res.Run("active")
		add("active host traffic %d B (paper: headers only)", a.Traffic)
		add("active host util %.3f (paper ~0)", a.HostUtil())
	case "fig13":
		a, _ := res.Run("active")
		add("per-node traffic ratio %.2f (paper 0.40 = p/(3p-2) at p=4)",
			float64(a.Traffic)/float64(res.Baseline().Traffic))
	case "fig15", "fig16":
		if sp := seriesNamed(res, "speedup"); sp != nil {
			add("max speedup %.2fx (paper: 5.61x / 5.92x at 128 nodes)", sp.MaxY())
		}
	case "twolevel":
		host, _ := res.Run("host")
		two, _ := res.Run("two-level")
		if host.Traffic > 0 {
			add("two-level host traffic %.4f%% of host-only (extension: not in the paper)",
				100*float64(two.Traffic)/float64(host.Traffic))
		}
	case "scalesweep":
		passB, actB := seriesNamed(res, "passive host bytes"), seriesNamed(res, "active host bytes")
		if passB != nil && actB != nil && len(passB.Y) > 0 {
			last := len(passB.Y) - 1
			add("host I/O at %d hosts: active is %.1f%% of passive (extension: not in the paper)",
				int(passB.X[last]), 100*actB.Y[last]/passB.Y[last])
		}
		if sp := seriesNamed(res, "speedup"); sp != nil {
			add("max speedup %.2fx over the host MST", sp.MaxY())
		}
	case "latsweep":
		passP99, actP99 := seriesNamed(res, "passive e2e p99 (us)"), seriesNamed(res, "active e2e p99 (us)")
		if passP99 != nil && actP99 != nil && len(passP99.Y) > 0 {
			last := len(passP99.Y) - 1
			add("e2e p99 at %d hosts: active %.1fus vs passive %.1fus (extension: not in the paper)",
				int(passP99.X[last]), actP99.Y[last], passP99.Y[last])
		}
	case "hdlsweep":
		if len(res.Series) == 2 && len(res.Series[0].Y) > 0 {
			act, pass := res.Series[0], res.Series[1]
			best := 0.0
			for i := range act.Y {
				if act.Y[i] > 0 {
					if r := pass.Y[i] / act.Y[i]; r > best {
						best = r
					}
				}
			}
			add("best compiled-on-switch speedup %.2fx over the host interpreter (extension: not in the paper)", best)
		}
	case "faultsweep":
		if s := seriesNamed(res, "goodput_mbps"); s != nil && len(s.Y) > 1 && s.Y[0] > 0 {
			add("goodput at %.1f%% loss is %.1f%% of fault-free (extension: not in the paper)",
				s.X[len(s.X)-1], 100*s.Y[len(s.Y)-1]/s.Y[0])
		}
	case "collsweep":
		// The title names the op swept: "In-network collectives: <op> ...".
		name, _, _ := strings.Cut(strings.TrimPrefix(res.Title, "In-network collectives: "), " ")
		op, _ := collective.ParseOp(name)
		passB, actB := seriesNamed(res, "passive host bytes"), seriesNamed(res, "active host bytes")
		if passB != nil && actB != nil && len(passB.Y) > 0 {
			last := len(passB.Y) - 1
			add("%s host I/O at %d hosts: active is %.1f%% of passive (extension: not in the paper)",
				op, int(passB.X[last]), 100*actB.Y[last]/passB.Y[last])
		}
		if sp := seriesNamed(res, "speedup"); sp != nil {
			add("max %s speedup %.2fx over %s", op, sp.MaxY(), collective.HostAlgorithm(op))
		}
		if spills := seriesNamed(res, "agg spills vs budget"); spills != nil && len(spills.Y) > 0 {
			// The spill cliff: the smallest budget at which the bounded
			// key table stops spilling to the host.
			cliff := -1
			for i := range spills.Y {
				if spills.Y[i] == 0 {
					cliff = int(spills.X[i])
					break
				}
			}
			if cliff >= 0 {
				add("keyagg spill cliff: spills reach 0 at budget %d (from %.0f at budget %d)",
					cliff, spills.Y[0], int(spills.X[0]))
			} else {
				add("keyagg still spilling at budget %d (%.0f spills)",
					int(spills.X[len(spills.X)-1]), spills.Y[len(spills.Y)-1])
			}
		}
	case "fig17":
		add("active 1-cpu speedup %.2f (paper: <1, a slowdown)", res.Speedup("active-1cpu"))
		add("active 4-cpu speedup %.2f (paper 1.50)", res.Speedup("active-4cpu"))
		np, _ := res.Run("normal+pref")
		ap4, _ := res.Run("active+pref-4cpu")
		add("4-cpu +pref vs normal+pref %.2f (paper 1.18)", float64(np.Time)/float64(ap4.Time))
	}
	return out
}

// seriesNamed returns res's series called name, or nil.
func seriesNamed(res *stats.Result, name string) *stats.Series {
	for i := range res.Series {
		if res.Series[i].Name == name {
			return &res.Series[i]
		}
	}
	return nil
}

// Package cliflags is the flag wiring shared by cmd/activesim and
// cmd/sansweep: output paths (metrics, traces, pprof profiles), the
// fault-injection plan, the collective topology selector, and the
// telemetry/flight-recorder switches. Both commands declare the same flags
// with the same semantics; this package keeps them from drifting and turns
// their values into one validated run config (exp.Config), with helpful
// errors, instead of two copies of the boilerplate. It also compiles
// activesim's -handler-src HDL handler into that config.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/exp"
	"activesan/internal/fault"
	"activesan/internal/hdl"
	"activesan/internal/metrics"
	"activesan/internal/prof"
	"activesan/internal/telemetry"
)

// Common holds the flag values shared by the commands.
type Common struct {
	TraceOut   string
	TraceLimit int
	MetricsOut string
	CPUProfile string
	MemProfile string
	Faults     string
	FaultSeed  uint64
	Topology   string
	Partitions int
	Collective string
	AggBudget  int
	Telemetry  bool
	FlightRec  string
	// StrictRoutes and HandlerSrc are activesim's -strict-routes and
	// -handler-src, which the command declares itself (sansweep has no
	// such flags).
	StrictRoutes bool
	HandlerSrc   string

	// FR is the armed flight recorder (nil unless -flight-recorder was
	// given). RunProtected feeds recovered panics into it; cleanup writes
	// its dump when it triggered.
	FR *telemetry.FlightRecorder
}

// Register declares the shared flags on the default flag set. Call before
// flag.Parse.
func Register() *Common {
	c := &Common{}
	flag.StringVar(&c.TraceOut, "trace-out", "",
		"write a Chrome trace-event / Perfetto JSON trace to this file")
	flag.IntVar(&c.TraceLimit, "tracelimit", 200000, "maximum trace lines/events")
	flag.StringVar(&c.MetricsOut, "metrics-out", "",
		"write secondary-metric snapshots as JSON to this file")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	flag.StringVar(&c.Faults, "faults", "",
		"arm the fault plan in this JSON file on the clusters of the experiments and sweeps that honour it (see RELIABILITY.md)")
	flag.Uint64Var(&c.FaultSeed, "fault-seed", 0, "override the fault plan's PRNG seed (requires -faults)")
	flag.StringVar(&c.Topology, "topology", "tree",
		"collective topology: tree (the paper's reduction tree), fattree, or fattree:K (see TOPOLOGIES.md)")
	flag.IntVar(&c.Partitions, "partitions", 1,
		"simulation partitions per cluster: 1 = serial engine, N = exactly N; results are byte-identical at any value (see PERFORMANCE.md)")
	flag.StringVar(&c.Collective, "collective", "allreduce",
		"collective op for the collsweep experiment and -sweep collective: allreduce, barrier, scatter, gather, or keyagg (see COLLECTIVES.md)")
	flag.IntVar(&c.AggBudget, "agg-budget", 0,
		"per-switch key-table budget (entries) for keyagg collectives; 0 = the library default, smaller budgets spill to the host (see COLLECTIVES.md)")
	flag.BoolVar(&c.Telemetry, "telemetry", false,
		"stamp packets with per-hop telemetry and fold latency histograms into metrics, in the experiments and sweeps that honour it (see OBSERVABILITY.md)")
	flag.StringVar(&c.FlightRec, "flight-recorder", "",
		"keep a per-component ring of recent trace events; dump to this file on a crash or -strict-routes violation")
	return c
}

// parseTopology validates a -topology value: the tree, or a fat tree with
// its arity override (K = 0 picks the smallest fit).
func parseTopology(v string) (cluster.Topo, error) {
	switch {
	case v == "" || v == "tree":
		return cluster.Topo{}, nil
	case v == "fattree":
		return cluster.Topo{FatTree: true}, nil
	case strings.HasPrefix(v, "fattree:"):
		k, err := strconv.Atoi(v[len("fattree:"):])
		if err != nil || k < 2 || k%2 != 0 {
			return cluster.Topo{}, fmt.Errorf("fattree arity %q must be an even integer >= 2", v[len("fattree:"):])
		}
		return cluster.Topo{FatTree: true, K: k}, nil
	default:
		return cluster.Topo{}, fmt.Errorf("unknown topology %q (want tree, fattree, or fattree:K)", v)
	}
}

// Setup validates the parsed values and returns the run config they
// describe, with Scale left for the caller to set. It also starts the
// profilers, the flight recorder and the Chrome trace writer, whose sinks
// the config carries. The returned cleanup (never nil) flushes the trace
// file, writes the flight-recorder dump if it triggered, and stops the
// profilers; defer it from main. RunProtected runs cleanup even when the
// simulation panics, so -trace-out/-metrics-out are never left truncated.
// Errors name the flag at fault.
func (c *Common) Setup() (cfg exp.Config, cleanup func(), err error) {
	noop := func() {}
	cfg = exp.DefaultConfig(0)
	if c.FaultSeed != 0 && c.Faults == "" {
		return cfg, noop, fmt.Errorf("-fault-seed has no effect without -faults")
	}
	topo, err := parseTopology(c.Topology)
	if err != nil {
		return cfg, noop, fmt.Errorf("-topology: %w", err)
	}
	if c.Partitions < 1 {
		return cfg, noop, fmt.Errorf("-partitions: count %d must be >= 1", c.Partitions)
	}
	topo.Parts = c.Partitions
	cfg.Env.Topology = topo
	if cfg.Collective, err = collective.ParseOp(c.Collective); err != nil {
		return cfg, noop, fmt.Errorf("-collective: %w", err)
	}
	if c.AggBudget < 0 {
		return cfg, noop, fmt.Errorf("-agg-budget: %d must be >= 0 (0 = default)", c.AggBudget)
	}
	if c.AggBudget > 0 {
		cfg.AggBudget = c.AggBudget
	}
	if c.Faults != "" {
		if cfg.Env.Faults, err = fault.Load(c.Faults); err != nil {
			return cfg, noop, fmt.Errorf("-faults: %w", err)
		}
		cfg.Env.FaultSeed = c.FaultSeed
	}
	if c.HandlerSrc != "" {
		src, err := os.ReadFile(c.HandlerSrc)
		if err != nil {
			return cfg, noop, fmt.Errorf("-handler-src: %w", err)
		}
		if cfg.Handler, err = hdl.Compile(string(src)); err != nil {
			return cfg, noop, fmt.Errorf("-handler-src: %w", err)
		}
	}
	if c.MetricsOut != "" {
		// Fail on an unwritable directory now, not after the simulation.
		if err := EnsureParent(c.MetricsOut); err != nil {
			return cfg, noop, fmt.Errorf("-metrics-out: %w", err)
		}
	}
	cfg.Env.Telemetry = c.Telemetry
	cfg.Env.StrictRoutes = c.StrictRoutes
	if c.FlightRec != "" {
		if err := EnsureParent(c.FlightRec); err != nil {
			return cfg, noop, fmt.Errorf("-flight-recorder: %w", err)
		}
		c.FR = telemetry.NewFlightRecorder(c.StrictRoutes)
	}
	stopProf := prof.Start(c.CPUProfile, c.MemProfile)

	var w *metrics.ChromeTraceWriter
	if c.TraceOut != "" {
		if err := EnsureParent(c.TraceOut); err != nil {
			stopProf()
			return cfg, noop, fmt.Errorf("-trace-out: %w", err)
		}
		f, err := os.Create(c.TraceOut)
		if err != nil {
			stopProf()
			return cfg, noop, fmt.Errorf("-trace-out: %w", err)
		}
		// The writer locks internally, so partition engines can share it.
		w = metrics.NewChromeTraceWriter(f, int64(c.TraceLimit))
		if c.Telemetry {
			// Per-hop spans ride the same Perfetto file as the event trace.
			cfg.Env.Spans = w
		}
	}

	// The trace sink: the flight recorder tees in front of the Chrome
	// writer (or records alone when there is no -trace-out).
	switch {
	case c.FR != nil && w != nil:
		cfg.Env.Trace = c.FR.Sink(w.Sink())
	case c.FR != nil:
		cfg.Env.Trace = c.FR.Sink(nil)
	case w != nil:
		cfg.Env.Trace = w.Sink()
	}

	out, frOut, fr := c.TraceOut, c.FlightRec, c.FR
	return cfg, func() {
		if fr != nil && fr.Triggered() {
			if err := os.WriteFile(frOut, []byte(fr.Dump()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote flight-recorder dump to %s\n", frOut)
			}
		}
		if w != nil {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Printf("wrote %s (%d events)\n", out, w.Events())
			}
		}
		stopProf()
	}, nil
}

// RunProtected executes body, converting a panic — a fault-plan crash
// surfacing under -strict-routes, an invariant failure — into exit code 1
// after arming the flight recorder with the panic message. The caller's
// deferred cleanup then still runs (trace close, flight dump, metrics
// write), so output files are complete even on a crashed run.
func (c *Common) RunProtected(body func() int) (code int) {
	defer func() {
		if r := recover(); r != nil {
			if c.FR != nil {
				c.FR.Trigger(fmt.Sprintf("panic: %v", r))
			}
			fmt.Fprintf(os.Stderr, "crash: %v\n", r)
			code = 1
		}
	}()
	return body()
}

// EnsureParent creates the directory a file path will be written into.
func EnsureParent(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		return os.MkdirAll(dir, 0o755)
	}
	return nil
}

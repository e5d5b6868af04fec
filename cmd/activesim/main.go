// Command activesim runs the paper's experiments: every table and figure of
// "Active I/O Switches in System Area Networks" (HPCA 2003) regenerated on
// the simulator.
//
// Usage:
//
//	activesim -list
//	activesim -run fig3              # one experiment at default scale
//	activesim -run all -scale 8      # everything, problem sizes / 8
//	activesim -run all -parallel 8   # fan the registry over 8 workers
//	activesim -run fig15 -scale 1    # full 128-node reduction sweep
//	activesim -run fig3 -metrics-out m.json -trace-out t.json
//	activesim -run fig3 -cpuprofile prof/cpu.pb.gz -memprofile prof/mem.pb.gz
//	activesim -run fig3 -faults plan.json -fault-seed 7
//	activesim -run all -strict-routes
//	activesim -run fig15 -topology fattree     # collectives on a k-ary fat tree
//	activesim -run scalesweep                  # fat-tree scaling curves, 4..64 hosts
//	activesim -run hdlsweep -handler-src my.hdl  # HDL handlers, plus your own
//	activesim -run fig3 -telemetry             # per-hop latency histograms
//	activesim -run fig3 -faults plan.json -flight-recorder flight.txt
//	activesim -run latsweep                    # per-hop active-vs-passive figure
//	activesim -run collsweep                   # in-network collectives + spill cliff
//
// -telemetry stamps every packet with a per-hop record and folds
// end-to-end/per-hop latency histograms, per-flow path breakdowns and
// occupancy watermarks into the metrics snapshot; -flight-recorder keeps a
// bounded ring of recent trace events per component and writes a readable
// dump to the given file when a crash, -strict-routes violation, or
// invariant panic fires. See OBSERVABILITY.md.
//
// -faults arms the JSON fault plan (see RELIABILITY.md) on the clusters of
// fig3, fig5, fig7, fig9, fig11, fig17, hdlsweep, faultsweep and collsweep,
// the experiments that also honour -telemetry; -fault-seed overrides the
// plan's PRNG seed. -strict-routes turns the first unroutable packet into
// a panic naming the switch and destination, instead of the default
// fault/no_route_drops accounting; like -trace and -trace-out it reaches
// every experiment.
//
// -topology selects the cluster the collective experiments (table2,
// fig15, fig16) build: "tree" (the paper's reduction tree, the default),
// "fattree" (the smallest k-ary fat tree holding the hosts), or
// "fattree:K" for a fixed arity — see TOPOLOGIES.md for the routing and
// handler-placement rules. The scalesweep experiment always uses fat trees.
//
// -collective selects the op the collsweep experiment scales (allreduce by
// default; barrier, scatter, gather, keyagg), and -agg-budget sizes the
// keyagg per-switch key table — smaller budgets spill un-aggregated
// records toward the root, the cliff collsweep's budget axis pins. See
// COLLECTIVES.md.
//
// -handler-src compiles an HDL handler source file (the declarative handler
// language of HANDLERS.md) and adds it to the hdlsweep experiment alongside
// the built-in library, so a user-written handler gets the same
// compiled-on-switch vs host-interpreter comparison and differential check.
//
// -parallel sets the worker goroutines for -run all and for one
// experiment's runs (default: GOMAXPROCS). With -run all the registry fans
// out over them and each experiment runs its own simulations in order;
// with one experiment, its independent simulations (the four
// configurations of fig3 to fig13, fig17's eight runs, twolevel's modes,
// hdlsweep's cases and faultsweep's points) fan out instead. Either way no
// more than -parallel simulations are live, and results always print in
// order, so the output is byte-identical to a sequential (-parallel 1)
// run. A traced run (-trace, -trace-out or -flight-recorder) runs one
// simulation at a time, so its trace is the sequential run's too.
//
// All flags become one run config (activesan.Config) handed to every
// experiment; nothing is installed process-wide.
//
// -metrics-out dumps every run's secondary-metric snapshot (the full
// per-component counter tree plus derived gauges and timelines) as JSON;
// -trace-out streams typed trace events as a Chrome trace-event file that
// opens directly in https://ui.perfetto.dev.
//
// Scale divides the paper's problem sizes; 1 reproduces them exactly (the
// database and sort workloads then simulate hundreds of megabytes and take
// minutes of wall time). The default scale of 8 preserves every shape.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"activesan"
	"activesan/internal/cliflags"
)

func main() { os.Exit(realMain()) }

// realMain is main with an exit code: deferred cleanup (trace flush,
// flight-recorder dump, profiler stop) must run before the process exits,
// and a crashed simulation must still flush every output file, so nothing
// below calls os.Exit directly once Setup has succeeded.
func realMain() int {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "experiment id to run, or \"all\"")
	scale := flag.Int64("scale", 8, "problem-size divisor (1 = paper's full sizes)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for -run all and for one experiment's runs (1 = sequential)")
	chart := flag.Bool("chart", false, "render ASCII bar charts after each result")
	svgDir := flag.String("svg", "", "write an SVG figure per experiment into this directory")
	jsonPath := flag.String("json", "", "write all results as JSON to this file")
	mdPath := flag.String("md", "", "write a markdown report of all results to this file")
	trace := flag.String("trace", "", "write a simulation event trace to this file (plain text)")
	cf := cliflags.Register()
	flag.BoolVar(&cf.StrictRoutes, "strict-routes", false,
		"panic on the first unroutable packet instead of counting a fault/no_route_drop")
	flag.Parse()

	if *trace != "" && cf.TraceOut != "" {
		fmt.Fprintln(os.Stderr, "activesim: -trace and -trace-out share the trace hook; pick one")
		return 2
	}
	cfg, cleanup, err := cf.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "activesim:", err)
		return 2
	}
	defer cleanup()
	cfg.Scale = *scale
	cfg.Env.Parallel = *parallel

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		w := bufio.NewWriter(f)
		defer func() {
			w.Flush()
			f.Close()
		}()
		// Partitioned clusters run engines on several goroutines that share
		// this sink: the mutex keeps the trace file and line budget coherent.
		var mu sync.Mutex
		lines := 0
		cfg.Env.Trace = func(ev activesan.TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			if lines >= cf.TraceLimit {
				return
			}
			lines++
			fmt.Fprintf(w, "%-14v %s\n", ev.At, ev.String())
		}
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range activesan.Experiments() {
			fmt.Printf("  %-8s %-18s %s\n", e.ID, e.Paper, e.Title)
		}
		if *run == "" {
			fmt.Println("\nrun one with: activesim -run <id> [-scale N]")
		}
		return 0
	}

	// The simulation runs protected: a fault-plan crash surfacing under
	// -strict-routes, or any invariant panic, converts to exit code 1 —
	// and everything after this block (result printing, -md/-json/-metrics
	// writes) plus the deferred cleanup still runs, so output files hold
	// whatever completed instead of being truncated mid-stream.
	var collected []*activesan.Result
	code := cf.RunProtected(func() int {
		if *run == "all" {
			// The parallel harness keeps results in registry order, so the
			// printed report is byte-identical at any worker count.
			collected = activesan.RunExperiments(cfg)
			return 0
		}
		res, err := activesan.RunExperiment(*run, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		collected = append(collected, res)
		return 0
	})

	for _, res := range collected {
		id := res.ID
		fmt.Print(res.Format())
		for _, s := range activesan.Shapes(res) {
			fmt.Printf("shape: %s\n", s)
		}
		if *chart {
			fmt.Println()
			fmt.Print(activesan.RenderASCII(res))
		}
		if *svgDir != "" {
			path := *svgDir + "/" + id + ".svg"
			if err := writeOut(path, activesan.RenderSVG(res)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		fmt.Println()
	}
	if *mdPath != "" {
		md := activesan.MarkdownReport("Active I/O Switches — experiment report", *scale, collected)
		if err := writeOut(*mdPath, []byte(md)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	if *jsonPath != "" {
		data, err := activesan.ResultJSON(collected)
		if err := marshalOut(*jsonPath, data, err); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	if cf.MetricsOut != "" {
		// Written even when the run crashed (collected may be partial or
		// empty): a valid, possibly-empty document beats a missing one.
		data, err := activesan.MetricsJSON(collected)
		if err := marshalOut(cf.MetricsOut, data, err); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	return code
}

// marshalOut writes one marshalled artifact, folding the marshal error in.
func marshalOut(path string, data []byte, err error) error {
	if err != nil {
		return err
	}
	return writeOut(path, data)
}

// writeOut writes one output artifact, creating its directory.
func writeOut(path string, data []byte) error {
	if err := cliflags.EnsureParent(path); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

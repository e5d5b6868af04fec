// Command perfbench runs one pass of one workload of the repository's
// benchmark and prints the pass's measurements as one JSON line on standard
// output. run.py launches one process per pass, so every pass starts from a
// fresh runtime, and reports medians over passes; DESIGN.md records the
// workloads, the metrics and the known defects.
//
//	perfbench -workload paper|fabric|permute [-seed n] [-launch-ns t] [-trace -spans file]
//
// A workload is a sequence of ops. Each op has an optional construction
// phase, which counts toward setup_s, and a run phase, which counts toward
// wall_s and cpu_s. The heap is collected before every phase, outside both.
// Every op's output is checked after its run phase; a failed check or a
// panic counts the op as failed and never aborts the pass.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// span is one call the benchmark made into the program, timed from outside.
// Start and End are seconds since the process started. A span whose position
// inside its parent is unknown (an EngineWall a library reports) has
// Approx set: its duration is exact, its start is its parent's.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Approx bool    `json:"approx,omitempty"`
}

// passResult is the line a pass prints.
type passResult struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// KnownFailed counts the failed ops listed in knownDefects.
	KnownFailed int `json:"known_failed"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Traced passes only: per-layer values, and the CPU-profile time of
	// the timed intervals by module of each sample's leaf frame.
	Layers    map[string]float64 `json:"layers,omitempty"`
	ProfileNS map[string]int64   `json:"profile_ns,omitempty"`
}

// pass runs the ops of one workload and accumulates their measurements.
type pass struct {
	trace  bool
	start  time.Time
	spans  []span
	parent int // span new calls nest under; -1 at top level
	opIdx  int // index of the current op

	res passResult

	// Traced passes read the runtime's counters and profile the CPU over
	// every timed interval; rt sums the counter deltas.
	rt                   [len(rtNames)]float64
	layers               map[string]float64
	aggHits, aggIngested float64
}

// The runtime counters a traced pass sums over its timed intervals.
var rtNames = [...]string{
	"/sched/latencies:seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/automatic:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func newPass(workload string, start time.Time, trace bool) *pass {
	p := &pass{trace: trace, start: start, parent: -1, opIdx: -1}
	p.res = passResult{Workload: workload}
	if trace {
		p.layers = map[string]float64{}
		p.res.ProfileNS = map[string]int64{}
	}
	return p
}

func (p *pass) since() float64 { return time.Since(p.start).Seconds() }

// call records a span named after the public function fn calls and
// returns its index.
func (p *pass) call(name string, fn func()) int {
	i := len(p.spans)
	p.spans = append(p.spans, span{Name: name, Start: p.since(), Parent: p.parent, Op: p.opIdx})
	outer := p.parent
	p.parent = i
	defer func() {
		p.parent = outer
		p.spans[i].End = p.since()
	}()
	fn()
	return i
}

// child records a span of known duration reported by the callee, such as
// the EngineWall of reduce.RunOn, under the span at index parent.
func (p *pass) child(parent int, name string, d time.Duration) {
	s := p.spans[parent]
	p.spans = append(p.spans, span{
		Name: name, Start: s.Start, End: s.Start + d.Seconds(),
		Parent: parent, Op: s.Op, Approx: true,
	})
}

// dur is the duration of the span at index i.
func (p *pass) dur(i int) float64 { return p.spans[i].End - p.spans[i].Start }

// add accumulates a per-layer value; untraced passes keep none.
func (p *pass) add(name string, v float64) {
	if p.trace {
		p.layers[name] += v
	}
}

// peak keeps the largest per-layer value seen.
func (p *pass) peak(name string, v float64) {
	if p.trace && v > p.layers[name] {
		p.layers[name] = v
	}
}

// interval runs fn as one timed phase: it collects the heap first, records
// a span, and in traced passes profiles fn and sums the runtime counters
// over it. A panic in fn is returned, not raised.
func (p *pass) interval(name string, fn func()) (wall, cpu float64, panicked any) {
	runtime.GC()
	var prof bytes.Buffer
	var rt0 [len(rtNames)]float64
	if p.trace {
		readRuntime(&rt0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fatalf("start CPU profile: %v", err)
		}
	}
	cpu0 := cpuSeconds()
	sp := p.call(name, func() {
		defer func() { panicked = recover() }()
		fn()
	})
	cpu = cpuSeconds() - cpu0
	if p.trace {
		pprof.StopCPUProfile()
		var rt1 [len(rtNames)]float64
		readRuntime(&rt1)
		for i := range rt1 {
			p.rt[i] += rt1[i] - rt0[i]
		}
		if err := addProfile(p.res.ProfileNS, prof.Bytes()); err != nil {
			fatalf("read CPU profile: %v", err)
		}
	}
	return p.dur(sp), cpu, panicked
}

// op runs one operation. build, when set, is its construction phase; run is
// the operation itself; check inspects the outputs. The closures share
// state through the caller's variables.
func (p *pass) op(name string, build, run func(), check func() error) {
	p.opIdx++
	p.res.Attempted++
	var err error
	p.call("op:"+name, func() { err = p.phases(build, run, check) })
	if err == nil {
		return
	}
	p.res.Failed++
	msg := name + ": " + err.Error()
	if d, ok := knownDefects[p.res.Workload+"/"+name]; ok {
		p.res.KnownFailed++
		msg += " [known defect " + d + "]"
	}
	p.res.Failures = append(p.res.Failures, msg)
}

// phases runs an op's phases and returns why the op failed, if it did.
func (p *pass) phases(build, run func(), check func() error) error {
	if build != nil {
		wall, _, pan := p.interval("setup", build)
		p.res.SetupS += wall
		if pan != nil {
			return fmt.Errorf("panic in construction: %v", pan)
		}
	}
	wall, cpu, pan := p.interval("run", run)
	p.res.WallS += wall
	p.res.CPUS += cpu
	if pan != nil {
		return fmt.Errorf("panic: %v", pan)
	}
	return safely(check)
}

// safely runs a check, reporting a panic as its error.
func safely(check func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in check: %v", r)
		}
	}()
	return check()
}

// finish completes the result: peak RSS, and in traced passes the layer
// values the runtime counters give.
func (p *pass) finish() passResult {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	p.res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	if p.trace {
		p.layers["sim.wakeups"] = p.rt[0]
		p.layers["runtime.alloc_mb"] = p.rt[1] / (1 << 20)
		p.layers["runtime.gc_cycles"] = p.rt[2]
		p.layers["runtime.gc_cpu_s"] = p.rt[3]
		if ev := p.layers["sim.events"]; ev > 0 {
			p.layers["sim.ns_per_event"] = p.layers["sim.run_s"] / ev * 1e9
		}
		if p.aggIngested > 0 {
			p.layers["collective.agg_hit_rate"] = p.aggHits / p.aggIngested
		}
		p.res.Layers = p.layers
	}
	return p.res
}

// cpuSeconds is the process's user plus system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// readRuntime reads rtNames; a histogram reads as its total count.
func readRuntime(out *[len(rtNames)]float64) {
	var s [len(rtNames)]metrics.Sample
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	for i := range s {
		switch v := s[i].Value; v.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Float64()
		case metrics.KindFloat64Histogram:
			var n uint64
			for _, c := range v.Float64Histogram().Counts {
				n += c
			}
			out[i] = float64(n)
		default:
			fatalf("runtime metric %s is not supported by this Go release", s[i].Name)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload to run: paper, fabric or permute")
	seed := flag.Uint64("seed", 1, "traffic seed; only permute's traffic depends on it")
	launchNS := flag.Int64("launch-ns", 0, "Unix time in ns at which the parent launched this process (default: process start)")
	trace := flag.Bool("trace", false, "record spans, per-layer counters and a CPU profile")
	spansPath := flag.String("spans", "", "file a traced pass writes its spans to")
	flag.Parse()
	p := newPass(*workload, start, *trace)
	if *launchNS > 0 {
		p.res.SetupS = start.Sub(time.Unix(0, *launchNS)).Seconds()
	}
	p.res.SetupS += p.since()
	switch *workload {
	case "paper":
		runPaper(p)
	case "fabric":
		runFabric(p)
	case "permute":
		runPermute(p, *seed)
	default:
		fatalf("unknown workload %q (want paper, fabric or permute)", *workload)
	}
	res := p.finish()

	if *trace && *spansPath != "" {
		data, err := json.Marshal(p.spans)
		if err != nil {
			fatalf("encode spans: %v", err)
		}
		if err := os.WriteFile(*spansPath, append(data, '\n'), 0o644); err != nil {
			fatalf("write spans: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)
}

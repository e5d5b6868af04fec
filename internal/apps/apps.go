// Package apps provides the shared harness for the paper's nine benchmarks:
// the four-configuration matrix (normal / normal+pref / active /
// active+pref), deterministic workload generation, the host-side streaming
// drivers, and metric collection into stats.Run values.
package apps

import (
	"fmt"

	"activesan/internal/cluster"
	"activesan/internal/fault"
	"activesan/internal/host"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
	"activesan/internal/telemetry"
)

// Config selects one of the paper's four benchmark configurations.
type Config int

// The configuration matrix of Section 5: "normal" runs on the host with
// non-active switches; "+pref" issues two outstanding I/O requests;
// "active" splits the program between host and switch handler.
const (
	Normal Config = iota
	NormalPref
	Active
	ActivePref
)

// AllConfigs lists the four configurations in the paper's order.
var AllConfigs = []Config{Normal, NormalPref, Active, ActivePref}

func (c Config) String() string {
	switch c {
	case Normal:
		return "normal"
	case NormalPref:
		return "normal+pref"
	case Active:
		return "active"
	case ActivePref:
		return "active+pref"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// IsActive reports whether the switch runs a handler in this configuration.
func (c Config) IsActive() bool { return c == Active || c == ActivePref }

// Outstanding returns how many I/O requests are kept in flight (the paper's
// "+pref" cases issue two).
func (c Config) Outstanding() int {
	if c == NormalPref || c == ActivePref {
		return 2
	}
	return 1
}

// Rand is sim.Rand with int64 bounds, the form the workload generators draw
// with: deterministic, seedable, and cheap enough to regenerate workload
// content on the fly (so multi-hundred-megabyte tables never need
// materializing).
type Rand struct{ sim.Rand }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{*sim.NewRand(seed)} }

// Intn returns a value in [0, n); n must be positive.
func (r *Rand) Intn(n int64) int64 { return r.Int63n(n) }

// Mix64 hashes x with the splitmix64 finalizer — the pure function used to
// derive record contents from indices.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Collect assembles a stats.Run from a finished cluster, including the
// full secondary-metric snapshot of every component.
func Collect(cfg Config, c *cluster.Cluster, end sim.Time, extra map[string]any) stats.Run {
	run := stats.Run{
		Config:  cfg.String(),
		Time:    end,
		Hosts:   len(c.Hosts),
		Extra:   extra,
		Metrics: metrics.Collect(c, end),
	}
	for _, h := range c.Hosts {
		b := h.CPU().Breakdown()
		run.HostBusy += b.Busy
		run.HostStall += b.Stall
		run.Traffic += h.Traffic()
	}
	for _, sw := range c.Switches {
		for _, sc := range sw.CPUs() {
			b := sc.Timing().Breakdown()
			run.SwitchBusy += b.Busy
			run.SwitchStall += b.Stall
		}
	}
	return run
}

// HostBar and SwitchBar build the breakdown-figure bars the paper draws for
// each configuration ("n-HP", "a+p-SP", ...).
func HostBar(label string, r stats.Run) stats.Bar {
	return stats.BreakdownBar(label, r.HostBusy, r.HostStall, r.Time, r.Hosts)
}

// SwitchBar builds the switch-CPU bar of a run (callers pass the number of
// switch CPUs so multi-CPU runs show per-CPU averages).
func SwitchBar(label string, r stats.Run, cpus int) stats.Bar {
	return stats.BreakdownBar(label, r.SwitchBusy, r.SwitchStall, r.Time, cpus)
}

// StandardBars derives the paper's usual bar set from a four-run result:
// host bars for the normal cases, host+switch bars for the active cases.
func StandardBars(res *stats.Result, switchCPUs int) []stats.Bar {
	var bars []stats.Bar
	short := map[string]string{
		"normal":      "n",
		"normal+pref": "n+p",
		"active":      "a",
		"active+pref": "a+p",
	}
	for _, r := range res.Runs {
		s := short[r.Config]
		bars = append(bars, HostBar(s+"-HP", r))
		if r.Config == "active" || r.Config == "active+pref" {
			bars = append(bars, SwitchBar(s+"-SP", r, switchCPUs))
		}
	}
	return bars
}

// StreamChunks drives the normal-case host read loop: file [0,size) in
// chunk-sized requests with the configuration's outstanding count, calling
// process after each chunk completes (in order). process receives the chunk
// offset, its length and the payloads that arrived.
func StreamChunks(p *sim.Proc, h *host.Host, store san.NodeID, file string,
	size, chunk int64, buf int64, outstanding int,
	process func(off, n int64, payloads []any)) {
	type pending struct {
		tok *host.ReadToken
		off int64
		n   int64
	}
	var q []pending
	issue := func(off int64) {
		n := size - off
		if n > chunk {
			n = chunk
		}
		q = append(q, pending{tok: h.IssueRead(p, store, file, off, n, buf), off: off, n: n})
	}
	next := int64(0)
	for i := 0; i < outstanding && next < size; i++ {
		issue(next)
		next += chunk
	}
	for len(q) > 0 {
		head := q[0]
		q = q[1:]
		comp := h.WaitRead(p, head.tok)
		// The synchronous case (one outstanding request) is read, process,
		// read — the next request only goes out after the chunk is handled,
		// exactly the serial pattern whose I/O stalls the paper's "normal"
		// bars show. Prefetching issues ahead so processing overlaps I/O.
		if outstanding > 1 && next < size {
			issue(next)
			next += chunk
		}
		if process != nil {
			process(head.off, head.n, comp.Payloads)
		}
		if outstanding <= 1 && next < size {
			issue(next)
			next += chunk
		}
	}
}

// StreamToSwitch drives the active-case host side: issue chunk reads whose
// data streams to the switch handler, pacing on the storage node's
// completion notifications with the configuration's outstanding count. The
// stream is mapped at streamBase..streamBase+size in the handler's address
// space and carries the given flow.
func StreamToSwitch(p *sim.Proc, h *host.Host, store san.NodeID, file string,
	size, chunk int64, sw san.NodeID, streamBase, flow int64, outstanding int) {
	var q []*host.ReadToken
	next := int64(0)
	issue := func() {
		n := size - next
		if n > chunk {
			n = chunk
		}
		q = append(q, h.IssueReadTo(p, store, file, next, n, sw, streamBase+next, flow))
		next += chunk
	}
	for i := 0; i < outstanding && next < size; i++ {
		issue()
	}
	for len(q) > 0 {
		head := q[0]
		q = q[1:]
		h.WaitRead(p, head)
		if next < size {
			issue()
		}
	}
}

// Env is what a run's configuration hands every cluster an experiment
// builds: the trace sink, -strict-routes, the fault plan, telemetry, and
// the collective topology; and how many of those clusters may run at once.
// Its zero value observes nothing, arms nothing, and runs
// runtime.GOMAXPROCS(0) simulations at once.
type Env struct {
	// Trace, when set, receives every engine's trace events. A
	// partitioned cluster calls it from several goroutines, so it must
	// lock.
	Trace sim.TraceSink
	// StrictRoutes makes every switch panic on its first unroutable packet.
	StrictRoutes bool
	// Faults, when set, is armed on each cluster, with a non-zero FaultSeed
	// overriding the plan's own seed.
	Faults    *fault.Plan
	FaultSeed uint64
	// Telemetry attaches a per-hop recorder to each cluster; Spans, when
	// set, receives its per-hop spans.
	Telemetry bool
	Spans     *metrics.ChromeTraceWriter
	// Topology selects the cluster collectives run on; the fat-tree
	// sweeps, which always build fat trees, read only its Parts.
	Topology cluster.Topo
	// Parallel is -parallel: how many of an experiment's independent
	// simulations may run at once (< 1 selects runtime.GOMAXPROCS(0),
	// 1 runs them in order on the caller's goroutine). Width applies it.
	Parallel int
}

// Observe installs the trace sink on every engine of c and the
// strict-routes setting on every switch. Call before the cluster runs.
func (e Env) Observe(c *cluster.Cluster) {
	if e.Trace != nil {
		if c.Group == nil {
			c.Eng.SetTraceSink(e.Trace)
		} else {
			for r := 0; r < c.Group.Len(); r++ {
				c.Group.Engine(r).SetTraceSink(e.Trace)
			}
		}
	}
	if e.StrictRoutes {
		for _, sw := range c.Switches {
			sw.SetStrictRoutes(true)
		}
	}
}

// Arm observes c, then arms the fault plan and attaches a telemetry
// recorder, returning each (nil when off). Call between topology
// construction and cluster.Start.
func (e Env) Arm(c *cluster.Cluster) (*fault.Injector, *telemetry.Recorder) {
	e.Observe(c)
	var inj *fault.Injector
	if e.Faults != nil {
		inj = fault.Arm(c, e.Faults, e.FaultSeed)
	}
	var rec *telemetry.Recorder
	if e.Telemetry {
		rec = telemetry.NewRecorder(e.Spans)
		rec.Attach(c)
	}
	return inj, rec
}

// RunIO is the single-host experiment template: it builds an I/O cluster,
// lets setup add files and handlers, arms env on it, runs app as host 0's
// program, and collects metrics over every host. extra returned by app
// lands in the run's Extra map.
func RunIO(env Env, ccfg cluster.IOClusterConfig, cfg Config,
	setup func(c *cluster.Cluster),
	app func(p *sim.Proc, c *cluster.Cluster) map[string]any) stats.Run {
	run, _ := RunIOWith(env, ccfg, cfg, setup, app, nil)
	return run
}

// RunIOWith is RunIO that also returns the fault injector (nil on a
// fault-free run) and restricts host metrics to the given host indices
// (nil = all hosts). Tar restricts them so the remote archive target's
// activity does not dilute the initiating host's utilization and traffic.
func RunIOWith(env Env, ccfg cluster.IOClusterConfig, cfg Config,
	setup func(c *cluster.Cluster),
	app func(p *sim.Proc, c *cluster.Cluster) map[string]any,
	hostIdx []int) (stats.Run, *fault.Injector) {
	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, ccfg)
	if setup != nil {
		setup(c)
	}
	inj, rec := env.Arm(c)
	c.Start()
	tl := metrics.StartTimelines(c, metrics.DefaultTimelineInterval)
	var end sim.Time
	var extra map[string]any
	eng.Spawn("app", func(p *sim.Proc) {
		extra = app(p, c)
		end = p.Now()
		// Stop inside the app process, at the workload's end: a live
		// sampler would keep the event queue non-empty forever.
		tl.Stop()
	})
	eng.Run()
	run := Collect(cfg, c, end, extra)
	tl.Into(run.Metrics)
	if rec != nil {
		rec.Into(run.Metrics)
	}
	if hostIdx != nil {
		run.HostBusy, run.HostStall, run.Traffic = 0, 0, 0
		run.Hosts = len(hostIdx)
		for _, i := range hostIdx {
			h := c.Host(i)
			b := h.CPU().Breakdown()
			run.HostBusy += b.Busy
			run.HostStall += b.Stall
			run.Traffic += h.Traffic()
		}
	}
	c.Shutdown()
	return run, inj
}

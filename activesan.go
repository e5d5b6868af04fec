// Package activesan is a full reproduction of "Active I/O Switches in
// System Area Networks" (Hao & Heinrich, HPCA 2003): an execution-driven
// simulator of a SAN cluster whose switches carry user-programmable
// embedded processors, plus the paper's nine benchmarks and a harness that
// regenerates every table and figure of its evaluation.
//
// Two levels of API are exposed:
//
//   - Experiment level: Experiments() lists every paper artifact;
//     RunExperiment executes one and returns its rows/series.
//
//   - System level: build clusters (NewIOCluster / NewTreeCluster),
//     register switch handlers (ActiveSwitch.Register with a HandlerCtx
//     callback), attach files to storage nodes, and drive host programs as
//     simulation processes — the same machinery the benchmarks use.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// versus published results.
package activesan

import (
	"encoding/json"
	"fmt"
	"io"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/exp"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/metrics"
	"activesan/internal/plot"
	"activesan/internal/report"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
	"activesan/internal/svm"
)

// Simulation core.
type (
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Proc is a simulated process (host program, handler driver, ...).
	Proc = sim.Proc
	// Time is simulated time in picoseconds.
	Time = sim.Time
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a fresh simulator.
func NewEngine() *Engine { return sim.NewEngine() }

// Fabric and node types.
type (
	// NodeID identifies an endpoint or switch.
	NodeID = san.NodeID
	// Header is the 128-bit SAN packet header with the active sub-header.
	Header = san.Header
	// Message is a multi-packet transfer.
	Message = san.Message
	// PacketType classifies packets (DataPacket, ActiveMsgPacket, ...).
	PacketType = san.Type
	// Host is a compute node (CPU + caches + memory + HCA + OS model).
	Host = host.Host
	// StorageNode is a TCA + SCSI bus + disk pair.
	StorageNode = iodev.StorageNode
	// File is an extent on a storage node.
	File = iodev.File
	// ActiveSwitch is the paper's switch with embedded processors.
	ActiveSwitch = aswitch.ActiveSwitch
	// HandlerCtx is the programming model handed to switch handlers.
	HandlerCtx = aswitch.Ctx
	// HandlerFunc is the code behind a jump-table entry.
	HandlerFunc = aswitch.HandlerFunc
	// SendSpec describes a handler's outgoing message.
	SendSpec = aswitch.SendSpec
	// Cluster is a wired system of hosts, switches and storage.
	Cluster = cluster.Cluster
	// IOClusterConfig parameterizes single-switch I/O clusters.
	IOClusterConfig = cluster.IOClusterConfig
	// TreeConfig parameterizes reduction-tree clusters.
	TreeConfig = cluster.TreeConfig
	// SwitchConfig parameterizes an active switch.
	SwitchConfig = aswitch.Config
	// ReadToken tracks an outstanding disk read.
	ReadToken = host.ReadToken
)

// Packet types.
const (
	DataPacket      = san.Data
	ActiveMsgPacket = san.ActiveMsg
	IORequestPacket = san.IORequest
	ControlPacket   = san.Control
)

// MTU is the network's maximum transfer unit (512 bytes, as in the paper).
const MTU = san.MTU

// DefaultIOClusterConfig returns a one-host, one-store cluster with the
// paper's hardware parameters.
func DefaultIOClusterConfig() IOClusterConfig { return cluster.DefaultIOClusterConfig() }

// NewIOCluster builds a single-switch cluster of hosts and storage nodes.
func NewIOCluster(eng *Engine, cfg IOClusterConfig) *Cluster {
	return cluster.NewIOCluster(eng, cfg)
}

// DefaultTreeConfig returns the paper's reduction topology for p hosts
// (16-port switches, 8 hosts per leaf).
func DefaultTreeConfig(p int) TreeConfig { return cluster.DefaultTreeConfig(p) }

// NewTreeCluster builds a switch tree for collective operations.
func NewTreeCluster(eng *Engine, cfg TreeConfig) *Cluster {
	return cluster.NewTreeCluster(eng, cfg)
}

// DefaultSwitchConfig returns the paper's active switch (one 500 MHz CPU,
// sixteen 512-byte buffers) with the given port count.
func DefaultSwitchConfig(ports int) SwitchConfig { return aswitch.DefaultConfig(ports) }

// Benchmark configurations.
type BenchConfig = apps.Config

// The paper's four-configuration matrix.
const (
	Normal     = apps.Normal
	NormalPref = apps.NormalPref
	Active     = apps.Active
	ActivePref = apps.ActivePref
)

// Experiment results.
type (
	// Experiment is one paper table or figure.
	Experiment = exp.Experiment
	// Config is one run's configuration: the scale divisor plus the trace
	// sink, fault plan, telemetry and topology its clusters get, and how
	// many of its simulations may run at once (Env.Parallel, -parallel).
	Config = exp.Config
	// Result carries an experiment's runs, breakdown bars and series.
	Result = stats.Result
	// Run is one benchmark configuration's metrics.
	Run = stats.Run
)

// Experiments lists every paper artifact in order (Table 1, Figures 3-17,
// Table 2).
func Experiments() []Experiment { return exp.Registry }

// DefaultConfig returns the config at the given scale divisor with nothing
// else set; scale 1 is the paper's full problem size.
func DefaultConfig(scale int64) Config { return exp.DefaultConfig(scale) }

// RunExperiment executes one experiment by id ("fig3", "table1", ...)
// under cfg.
func RunExperiment(id string, cfg Config) (*Result, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, fmt.Errorf("activesan: unknown experiment %q (have %v)", id, exp.IDs())
	}
	return e.RunConfig(cfg), nil
}

// RunExperiments executes the whole registry under cfg. Experiments fan
// out over cfg.Env.Parallel worker goroutines (< 1 selects
// runtime.GOMAXPROCS(0); each experiment simulates on its own engines and
// runs its own simulations inline, so no more than that many are live),
// and a config with a trace sink runs one experiment at a time. Results
// are ordered by registry index regardless of completion order, so any
// width reproduces the sequential (Parallel 1) harness exactly.
func RunExperiments(cfg Config) []*Result {
	return exp.RunAll(cfg)
}

// Shapes summarizes a result's headline numbers against the paper's.
func Shapes(res *Result) []string { return exp.Shapes(res) }

// Switch assembly. Handlers may be written in the embedded processor's
// MIPS-like assembly and executed instruction-by-instruction instead of
// through cost models: Assemble the source once, then RunProgram inside a
// handler. See examples/asmhandler.
type (
	// Program is an assembled switch handler.
	Program = svm.Program
	// VMResult reports a finished program (registers, instruction count).
	VMResult = svm.Result
)

// Assemble parses switch-handler assembly (see package svm for the ISA).
func Assemble(src string) (*Program, error) { return svm.Assemble(src) }

// RunProgram executes an assembled handler on the switch CPU: one cycle
// per instruction, fetches through the I-cache, stream loads through the
// ATB, private memory through the D-cache. It returns the machine state
// and the words the program emitted.
func RunProgram(x *HandlerCtx, prog *Program, streamBase, memBase int64, init map[uint8]uint32) (*VMResult, []uint32, error) {
	return svm.RunOnCtx(x, prog, streamBase, memBase, init)
}

// ResultJSON encodes results for downstream tooling: times are integer
// picoseconds; Extra carries benchmark-specific values as-is.
func ResultJSON(results []*Result) ([]byte, error) {
	wrapper := struct {
		Paper   string    `json:"paper"`
		Results []*Result `json:"results"`
	}{
		Paper:   "Active I/O Switches in System Area Networks (HPCA 2003)",
		Results: results,
	}
	return json.MarshalIndent(wrapper, "", "  ")
}

// MarkdownReport renders results as a self-contained markdown document.
func MarkdownReport(title string, scale int64, results []*Result) string {
	return report.Markdown(title, scale, results)
}

// RenderASCII draws a result as terminal bar charts.
func RenderASCII(res *Result) string { return plot.ASCII(res) }

// RenderSVG draws a result as a standalone SVG figure.
func RenderSVG(res *Result) []byte { return plot.SVG(res) }

// Typed tracing and metrics.
type (
	// TraceEvent is one typed simulation trace record (category, name,
	// component, detail, timestamp).
	TraceEvent = sim.TraceEvent
	// TraceSink consumes typed trace events. Set as a Config's Env.Trace,
	// it sees every simulation the config runs: packet send/receive at
	// every link, switch and NIC, handler dispatch/invoke/retire,
	// main-memory cache misses and disk operations (activesim's -trace
	// writes them as text lines). A partitioned cluster calls it from
	// several goroutines, so it must lock — NewChromeTraceWriter's sink
	// already does.
	TraceSink = sim.TraceSink
	// MetricsSnapshot is the per-run secondary-metric tree: every
	// component counter under a "/"-separated name, plus derived gauges
	// and sampled timelines. Each Run carries one in its Metrics field.
	MetricsSnapshot = metrics.Snapshot
	// ChromeTraceWriter streams typed trace events as a Perfetto /
	// chrome://tracing loadable JSON file.
	ChromeTraceWriter = metrics.ChromeTraceWriter
)

// NewChromeTraceWriter starts a Chrome trace-event JSON stream on w,
// capped at limit events (0 = unlimited). Set its Sink as a Config's
// Env.Trace, or on an Engine with SetTraceSink, and Close it after the last
// simulation finishes; the resulting file opens directly in
// https://ui.perfetto.dev.
func NewChromeTraceWriter(w io.Writer, limit int64) *ChromeTraceWriter {
	return metrics.NewChromeTraceWriter(w, limit)
}

// MetricsDiff compares two snapshots, returning every shared metric whose
// relative change exceeds thresholdPct (largest drift first).
func MetricsDiff(before, after *MetricsSnapshot, thresholdPct float64) []metrics.Drift {
	return metrics.Diff(before, after, thresholdPct)
}

// MetricsJSON extracts every run's metrics snapshot into one JSON document
// keyed by experiment id and configuration — the activesim/sansweep
// -metrics-out payload.
func MetricsJSON(results []*Result) ([]byte, error) {
	experiments := make(map[string]map[string]*metrics.Snapshot)
	for _, res := range results {
		for _, r := range res.Runs {
			if r.Metrics == nil {
				continue
			}
			m := experiments[res.ID]
			if m == nil {
				m = make(map[string]*metrics.Snapshot)
				experiments[res.ID] = m
			}
			m[r.Config] = r.Metrics
		}
	}
	wrapper := struct {
		Paper       string                                  `json:"paper"`
		Experiments map[string]map[string]*metrics.Snapshot `json:"experiments"`
	}{
		Paper:       "Active I/O Switches in System Area Networks (HPCA 2003)",
		Experiments: experiments,
	}
	return json.MarshalIndent(wrapper, "", "  ")
}

// Package hdlsweep runs the HDL handler library through the active/passive
// matrix: each program executes compiled-on-the-switch (the VM charging real
// switch cycles, stream loads stalling on the ATB) and host-side (the host
// streams the file and runs the reference interpreter, charged to the host
// CPU), with the interpreter's trace as the oracle both variants must
// reproduce. A seeded differential batch rides along, so the sweep fails
// loudly if compiler and interpreter ever disagree. With -handler-src a
// user-supplied handler joins the built-ins. Not a figure from the paper:
// this is the handler-authoring extension of ROADMAP item 4.
package hdlsweep

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/hdl"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Params sizes the sweep.
type Params struct {
	// StreamBytes is each program's input size (kept a multiple of 16 so
	// record and word units tile it exactly).
	StreamBytes int64
	// ChunkSize is the passive host's read-request size.
	ChunkSize int64
	// ActiveChunk is the active case's disk-request size.
	ActiveChunk int64
	// DiffSeeds is the size of the riding differential batch.
	DiffSeeds int
	// Extra, when set, joins the built-in handlers (-handler-src).
	Extra *hdl.Compiled
	// Env observes and arms each point's cluster.
	Env apps.Env
}

// DefaultParams processes 1 MB per program.
func DefaultParams() Params {
	return Params{
		StreamBytes: 1 << 20,
		ChunkSize:   64 * 1024,
		ActiveChunk: 1 << 20,
		DiffSeeds:   64,
	}
}

// Case is one handler in the sweep.
type Case struct {
	Name   string
	Src    string
	Params map[string]uint32
}

// Cases lists the swept handlers: the ported library plus, when set, the
// user's extra handler.
func Cases(extra *hdl.Compiled) []Case {
	cs := []Case{
		{Name: "select", Src: hdl.SelectHDL, Params: map[string]uint32{"threshold": 64}},
		{Name: "sum", Src: hdl.SumHDL},
		{Name: "minmax", Src: hdl.MinMaxHDL},
	}
	if extra != nil {
		cs = append(cs, Case{Name: extra.AST.Name, Src: extra.AST.Render()})
	}
	return cs
}

const (
	handlerID  = 30
	streamBase = 1 << 20
	memBase    = 1 << 16
	resultFlow = 0x7400
	streamFlow = 0x6400
)

// BuildStream derives the deterministic input from record indices, like the
// other benchmarks' functional tables.
func BuildStream(prm Params) []byte {
	n := prm.StreamBytes / 16 * 16
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(apps.Mix64(uint64(i)) >> 32)
	}
	return data
}

// Point is one (program, variant) measurement.
type Point struct {
	Run   stats.Run
	Words int
	Match bool // outputs identical to the interpreter oracle
}

// RunActive executes the compiled handler on the switch: the host maps the
// file at the switch and streams it through the ATB; the handler's emitted
// words come back in one completion message and must equal the oracle.
func RunActive(c *hdl.Compiled, params map[string]uint32, data []byte, oracle []uint32, prm Params) Point {
	size := int64(len(data))
	var got []uint32
	run := apps.RunIO(prm.Env, cluster.DefaultIOClusterConfig(), apps.Active,
		func(cl *cluster.Cluster) {
			cl.Store(0).AddFile(&iodev.File{Name: "s", Size: size, Data: data})
			cl.Switch(0).Register(handlerID, c.AST.Name, c.Handler(hdl.HandlerSpec{
				StreamBase: streamBase, StreamLen: size, MemBase: memBase,
				Params: params, Flow: resultFlow, Addr: 0x100,
			}))
		},
		func(p *sim.Proc, cl *cluster.Cluster) map[string]any {
			h := cl.Host(0)
			sw := cl.Switch(0)
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: 0},
				Size: 32,
			}, 0)
			apps.StreamToSwitch(p, h, cl.Store(0).ID(), "s", size, prm.ActiveChunk,
				sw.ID(), streamBase, streamFlow, 1)
			comp := h.RecvFlow(p, sw.ID(), resultFlow)
			got = comp.Payloads[0].([]uint32)
			return map[string]any{"program": c.AST.Name, "words": len(got)}
		})
	return Point{Run: run, Words: len(got), Match: wordsEqual(got, oracle)}
}

// RunPassive is the host-side baseline: stream the file to the host, then
// run the program through the reference interpreter with its charged cycle
// count billed to the host CPU.
func RunPassive(c *hdl.Compiled, params map[string]uint32, data []byte, oracle []uint32, prm Params) Point {
	size := int64(len(data))
	var got []uint32
	run := apps.RunIO(prm.Env, cluster.DefaultIOClusterConfig(), apps.Normal,
		func(cl *cluster.Cluster) {
			cl.Store(0).AddFile(&iodev.File{Name: "s", Size: size, Data: data})
		},
		func(p *sim.Proc, cl *cluster.Cluster) map[string]any {
			h := cl.Host(0)
			buf := h.Space().Alloc(prm.ChunkSize, 4096)
			apps.StreamChunks(p, h, cl.Store(0).ID(), "s", size, prm.ChunkSize, buf, 1,
				func(off, n int64, _ []any) {
					h.CPU().Load(p, buf)
				})
			trace := hdl.Interpret(c.AST, data, streamBase, params)
			h.CPU().Compute(p, trace.Cycles)
			got = trace.Out
			return map[string]any{"program": c.AST.Name, "words": len(trace.Out)}
		})
	return Point{Run: run, Words: len(got), Match: wordsEqual(got, oracle)}
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunAll runs every (program, variant) point in Cases(prm.Extra) order on
// one generated stream. The cases, and then the differential seeds, run
// through prm.Env.Runs.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "hdlsweep",
		Title: "HDL handlers: compiled-on-switch vs host interpreter",
	}
	cases := Cases(prm.Extra)
	data := BuildStream(prm)

	type pair struct {
		active, passive Point
		cycles          int64
		instrs          int
		err             error
	}
	points := make([]pair, len(cases))
	prm.Env.Runs(len(cases), func(i int) string { return "hdlsweep " + cases[i].Name }, func(i int) {
		cs := cases[i]
		c, err := hdl.Compile(cs.Src)
		if err != nil {
			points[i].err = err
			return
		}
		oracle := hdl.Interpret(c.AST, data, streamBase, cs.Params)
		points[i].cycles = oracle.Cycles
		points[i].instrs = len(c.Prog.Instrs)
		points[i].active = RunActive(c, cs.Params, data, oracle.Out, prm)
		points[i].passive = RunPassive(c, cs.Params, data, oracle.Out, prm)
	})

	var actLat, passLat stats.Series
	actLat.Name = "active (compiled on switch)"
	passLat.Name = "passive (host interpreter)"
	for i, cs := range cases {
		pt := points[i]
		if pt.err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: COMPILE ERROR: %v", cs.Name, pt.err))
			continue
		}
		if !pt.active.Match || !pt.passive.Match {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s: OUTPUT DIVERGED from the interpreter oracle (active ok=%v, passive ok=%v)",
				cs.Name, pt.active.Match, pt.passive.Match))
		}
		x := float64(i)
		actLat.X = append(actLat.X, x)
		actLat.Y = append(actLat.Y, pt.active.Run.Time.Micros())
		passLat.X = append(passLat.X, x)
		passLat.Y = append(passLat.Y, pt.passive.Run.Time.Micros())
		res.Runs = append(res.Runs, pt.active.Run, pt.passive.Run)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%-8s %d instrs, %d cycles, %d words: active %v (host I/O %d B) vs passive %v (host I/O %d B)",
			cs.Name, pt.instrs, pt.cycles, pt.active.Words,
			pt.active.Run.Time, pt.active.Run.Traffic,
			pt.passive.Run.Time, pt.passive.Run.Traffic))
	}
	res.Series = []stats.Series{actLat, passLat}

	// The riding differential batch: every seed must agree between the
	// compiled and interpreted executions.
	errs := make([]error, prm.DiffSeeds)
	prm.Env.Runs(len(errs), func(seed int) string { return fmt.Sprintf("hdlsweep differential seed %d", seed) },
		func(seed int) { errs[seed] = hdl.DiffSeed(uint64(seed)) })
	diverged := 0
	for seed, err := range errs {
		if err != nil {
			diverged++
			res.Notes = append(res.Notes, fmt.Sprintf("differential seed %d: %v", seed, err))
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"differential batch: %d seeds, %d divergences", prm.DiffSeeds, diverged))
	return res
}

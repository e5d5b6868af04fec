// Package grep reproduces the paper's Grep benchmark: GNU-grep-style search
// of a 1,146,880-byte file for "Big Red Bear" with exactly 16 matching
// lines, issued in 32 KB I/O requests. The three phases of a grep run —
// option parsing, DFA construction, search — split exactly as the paper
// describes: the active version leaves parsing on the host and runs DFA
// setup and the search on the switch, returning only the matched lines.
package grep

import (
	"bytes"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// The paper's workload (Table 1) and the calibrated costs.
const (
	// FileSize is the corpus size in bytes.
	FileSize = 1146880
	// Pattern is the searched string.
	Pattern = "Big Red Bear"
	// Matches is how many corpus lines hold Pattern.
	Matches = 16
	// chunkSize is the I/O request size.
	chunkSize = 32 * 1024

	// hostScanInstr is the host's per-byte search cost (DFA step, loop).
	hostScanInstr = 6
	// switchScanCycles is the switch CPU's per-byte search cost.
	switchScanCycles = 4
	// dfaSetupInstr is the automaton construction cost.
	dfaSetupInstr = 30000
	// parseInstr is command-line option parsing (always on the host).
	parseInstr = 20000
)

// DFA is a single-pattern byte automaton (KMP-style with full transition
// table), the moral equivalent of GNU grep 2.0's DFA stage.
type DFA struct {
	pattern []byte
	next    [][256]int16
}

// BuildDFA constructs the automaton.
func BuildDFA(pattern string) *DFA {
	p := []byte(pattern)
	m := len(p)
	d := &DFA{pattern: p, next: make([][256]int16, m)}
	if m == 0 {
		return d
	}
	d.next[0][p[0]] = 1
	x := 0
	for s := 1; s < m; s++ {
		for c := 0; c < 256; c++ {
			d.next[s][c] = d.next[x][c]
		}
		d.next[s][p[s]] = int16(s + 1)
		x = int(d.next[x][p[s]])
	}
	return d
}

// Scanner runs the DFA over a byte stream, tracking line boundaries so
// matched lines can be reported like grep does.
type Scanner struct {
	d     *DFA
	state int
	line  []byte
	// Lines collects each matched line.
	Lines [][]byte
	// hit marks the current line as matched.
	hit bool
}

// NewScanner starts a stream scan.
func NewScanner(d *DFA) *Scanner { return &Scanner{d: d} }

// Feed consumes the next chunk of the stream.
func (s *Scanner) Feed(data []byte) {
	m := len(s.d.pattern)
	for _, b := range data {
		if b == '\n' {
			if s.hit {
				line := make([]byte, len(s.line))
				copy(line, s.line)
				s.Lines = append(s.Lines, line)
			}
			s.line = s.line[:0]
			s.hit = false
			s.state = 0
			continue
		}
		s.line = append(s.line, b)
		if m > 0 {
			s.state = int(s.d.next[s.state][b])
			if s.state == m {
				s.hit = true
				s.state = 0
			}
		}
	}
}

// Flush terminates the final (unterminated) line.
func (s *Scanner) Flush() {
	if s.hit {
		line := make([]byte, len(s.line))
		copy(line, s.line)
		s.Lines = append(s.Lines, line)
	}
	s.line = nil
	s.hit = false
}

// Corpus line shape: each line holds minWords to maxWords words of
// minWord to maxWord lowercase letters.
const (
	minWords, maxWords = 6, 11
	minWord, maxWord   = 3, 9
)

// maxLineLen is the longest line BuildCorpus can emit: maxWords words of
// maxWord letters, the spaces between them, a planted " <pattern>" and the
// newline.
func maxLineLen(pattern string) int {
	return maxWords*maxWord + maxWords - 1 + 1 + len(pattern) + 1
}

// BuildCorpus deterministically generates the workload: FileSize bytes of
// lowercase text lines with Pattern planted on exactly Matches lines,
// spread evenly. Lowercase filler cannot collide with the capitalized
// pattern.
func BuildCorpus() []byte {
	rng := apps.NewRand(0x67726570) // "grep"
	// The last line starts before FileSize and is at most maxLineLen long,
	// so the buffer never grows: one allocation, one line above FileSize.
	out := make([]byte, 0, FileSize+int64(maxLineLen(Pattern))-1)
	lineNo := 0
	// Plant matches on evenly spaced line numbers: about 18 lines per KB.
	approxLines := int(FileSize / 64)
	interval := approxLines / (Matches + 1)
	planted := 0
	for int64(len(out)) < FileSize {
		words := minWords + int(rng.Intn(maxWords-minWords+1))
		for w := 0; w < words; w++ {
			if w > 0 {
				out = append(out, ' ')
			}
			wl := minWord + int(rng.Intn(maxWord-minWord+1))
			for i := 0; i < wl; i++ {
				out = append(out, byte('a'+rng.Intn(26)))
			}
		}
		if planted < Matches && interval > 0 && lineNo%interval == interval/2 {
			out = append(out, ' ')
			out = append(out, Pattern...)
			planted++
		}
		out = append(out, '\n')
		lineNo++
	}
	out = out[:FileSize]
	// The truncation cannot cut a planted line: matches are spread evenly
	// and the last interval stays pattern-free by construction; verify at
	// generation time so the workload is self-checking.
	if n := bytes.Count(out, []byte(Pattern)); n != Matches {
		panic("grep: corpus generation produced wrong match count")
	}
	return out
}

// handlerID is Grep's jump-table slot.
const handlerID = 9

// stream layout in the handler's 32-bit mapped space.
const (
	argBase    = 0x0000_0000
	streamBase = 0x0010_0000
	resultFlow = 0x7001
)

// runCorpus executes one configuration on corpus, BuildCorpus(), under env
// and returns its metrics. It only reads corpus, so concurrent runs share
// one.
func runCorpus(cfg apps.Config, env apps.Env, corpus []byte) stats.Run {
	ccfg := cluster.DefaultIOClusterConfig()

	var matched int
	setup := func(c *cluster.Cluster) {
		c.Store(0).AddFile(&iodev.File{Name: "input", Size: FileSize, Data: corpus})
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		sw.Register(handlerID, "grep", func(x *aswitch.Ctx) {
			x.Args()
			x.ReleaseArgs()
			// DFA setup on the switch (the paper moves phases 2 and 3 off
			// the host).
			scan := NewScanner(BuildDFA(Pattern))
			x.Compute(dfaSetupInstr)
			cursor := int64(streamBase)
			end := int64(streamBase) + FileSize
			for cursor < end {
				b := x.WaitStream(cursor)
				data, _ := x.ReadAll(b).([]byte)
				x.Compute(switchScanCycles * b.Size())
				scan.Feed(data)
				cursor = b.End()
				x.Deallocate(cursor)
			}
			scan.Flush()
			// Ship only the matched lines back to the host.
			var out []byte
			for _, l := range scan.Lines {
				out = append(out, l...)
				out = append(out, '\n')
			}
			size := int64(len(out))
			if size == 0 {
				size = 1
			}
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Data, Addr: 0x9000,
				Size: size, Flow: resultFlow, Payload: out,
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h := c.Host(0)
		store := c.Store(0).ID()
		sw := c.Switch(0)
		h.CPU().Compute(p, parseInstr) // option parsing stays on the host

		if cfg.IsActive() {
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
				Size:    64,
				Payload: Pattern,
			}, 0)
			apps.StreamToSwitch(p, h, store, "input", FileSize, chunkSize,
				sw.ID(), streamBase, 0x6001, cfg.Outstanding())
			comp := h.RecvFlow(p, sw.ID(), resultFlow)
			lines := bytes.Count(comp.Bytes(), []byte{'\n'})
			// Touch the received lines (they are the program's output).
			h.CPU().TouchRange(p, 0x9000, comp.Size, cache.Load)
			h.CPU().Compute(p, int64(lines)*20)
			matched = lines
			return map[string]any{"matches": matched}
		}

		// Normal: DFA setup then scan on the host.
		scan := NewScanner(BuildDFA(Pattern))
		h.CPU().Compute(p, dfaSetupInstr)
		buf := h.Space().Alloc(chunkSize, 4096)
		apps.StreamChunks(p, h, store, "input", FileSize, chunkSize, buf,
			cfg.Outstanding(), func(off, n int64, payloads []any) {
				// Architectural cost: walk the chunk and run the DFA.
				h.CPU().TouchRange(p, buf, n, cache.Load)
				h.CPU().Compute(p, hostScanInstr*n)
				for _, pl := range payloads {
					if b, ok := pl.([]byte); ok {
						scan.Feed(b)
					}
				}
			})
		scan.Flush()
		matched = len(scan.Lines)
		return map[string]any{"matches": matched}
	}

	return apps.RunIO(env, ccfg, cfg, setup, app)
}

// RunAll executes the four configurations on one corpus, each cluster
// observed and armed by env, and assembles the paper's Figure 9/10 result.
func RunAll(env apps.Env) *stats.Result {
	corpus := BuildCorpus()
	return apps.RunMatrix(env, "fig9", "Grep: time, host utilization, host I/O traffic",
		func(cfg apps.Config) stats.Run { return runCorpus(cfg, env, corpus) })
}

package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"activesan/internal/sim"
)

// ChromeTraceWriter streams typed trace events as a Chrome trace-event
// JSON file ("JSON Array Format" with a traceEvents wrapper), loadable by
// Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each emitting
// component becomes a named thread; events are instants on that thread's
// timeline with the category carried through for filtering.
//
// The writer locks internally: engines running in parallel all funnel into
// one file. Install w.Sink() on each engine (or as a run's apps.Env.Trace)
// and Close it after the last engine finishes.
type ChromeTraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	tids   map[string]int
	events int64
	limit  int64
	first  bool
	closed bool
}

// chromeEvent is one trace-event record; field names are the format's.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds, "X" phase only
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewChromeTraceWriter starts a trace file on w. limit caps the number of
// trace events written (0 = unlimited); events past the cap are dropped
// silently, keeping bounded files for long runs. If w is also an
// io.Closer, Close closes it.
func NewChromeTraceWriter(w io.Writer, limit int64) *ChromeTraceWriter {
	c := &ChromeTraceWriter{
		bw:    bufio.NewWriter(w),
		tids:  make(map[string]int),
		limit: limit,
		first: true,
	}
	if cl, ok := w.(io.Closer); ok {
		c.closer = cl
	}
	c.bw.WriteString(`{"traceEvents":[`)
	return c
}

// Sink returns the typed trace sink to install on engines.
func (c *ChromeTraceWriter) Sink() sim.TraceSink {
	return func(ev sim.TraceEvent) { c.emit(ev) }
}

func (c *ChromeTraceWriter) emit(ev sim.TraceEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || (c.limit > 0 && c.events >= c.limit) {
		return
	}
	c.events++
	c.write(chromeEvent{
		Name:  ev.Name,
		Cat:   ev.Cat,
		Phase: "i",
		Scope: "t",
		TS:    float64(ev.At) / 1e6, // picoseconds -> microseconds
		TID:   c.tidFor(ev.Comp),
		Args:  map[string]any{"detail": ev.Detail},
	})
}

// Span writes one complete duration event ("X" phase) on comp's thread —
// the telemetry recorder's Perfetto span export for per-hop latency.
func (c *ChromeTraceWriter) Span(comp, name, cat string, start, dur sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || (c.limit > 0 && c.events >= c.limit) {
		return
	}
	c.events++
	c.write(chromeEvent{
		Name:  name,
		Cat:   cat,
		Phase: "X",
		TS:    float64(start) / 1e6, // picoseconds -> microseconds
		Dur:   float64(dur) / 1e6,
		TID:   c.tidFor(comp),
	})
}

// tidFor returns comp's thread id, writing its metadata record on first
// use; caller holds the lock.
func (c *ChromeTraceWriter) tidFor(comp string) int {
	if comp == "" {
		comp = "sim"
	}
	tid, ok := c.tids[comp]
	if !ok {
		tid = len(c.tids) + 1
		c.tids[comp] = tid
		c.write(chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			TID:   tid,
			Args:  map[string]any{"name": comp},
		})
	}
	return tid
}

// write appends one record; caller holds the lock.
func (c *ChromeTraceWriter) write(ev chromeEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return // a map[string]any of strings cannot fail; keep the stream intact
	}
	if !c.first {
		c.bw.WriteByte(',')
	}
	c.first = false
	c.bw.Write(data)
}

// Events reports how many (non-metadata) events were written.
func (c *ChromeTraceWriter) Events() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Close terminates the JSON document and flushes (and closes the
// underlying file, when it is one). Safe to call once.
func (c *ChromeTraceWriter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.bw.WriteString("]}\n")
	err := c.bw.Flush()
	if c.closer != nil {
		if cerr := c.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

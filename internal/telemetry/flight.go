package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"activesan/internal/sim"
)

// DefaultRingSize is the per-component flight-recorder depth: enough to
// see the events leading into a crash without retaining a full trace.
const DefaultRingSize = 32

// maxTriggers bounds the recorded trigger list (a strict-routes storm
// could otherwise grow it without limit).
const maxTriggers = 16

// evRing is one component's fixed-size ring of recent trace events.
type evRing struct {
	ev    []sim.TraceEvent
	next  int
	total int64
}

func (r *evRing) add(ev sim.TraceEvent) {
	if len(r.ev) < cap(r.ev) {
		r.ev = append(r.ev, ev)
	} else {
		r.ev[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.ev)
	r.total++
}

// FlightRecorder keeps a fixed-size ring of recent trace events per
// component and arms itself when a crash-class event passes through:
// a fault-plan handler crash always, a no-route drop when -strict-routes
// is set (the drop event is emitted before the fail-fast panic), or an
// explicit Trigger from a recovered invariant panic. Dump renders the
// rings as a bounded, deterministic report — the last thing each
// component did before the crash — so faultsweep debugging does not
// require a full trace file.
//
// The recorder locks internally: the partition engines of a partitioned
// cluster all tee into one instance.
type FlightRecorder struct {
	mu       sync.Mutex
	size     int
	strict   bool
	rings    map[string]*evRing
	triggers []string
	dropped  int
}

// NewFlightRecorder returns a recorder keeping size events per component
// (<= 0 selects DefaultRingSize). strictRoutes makes a no-route drop a
// trigger, as it is under -strict-routes.
func NewFlightRecorder(size int, strictRoutes bool) *FlightRecorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &FlightRecorder{size: size, strict: strictRoutes, rings: make(map[string]*evRing)}
}

// Sink returns a trace sink that records every event into the rings, arms
// the recorder on crash-class events, and then forwards to next (which may
// be nil). Install it as the run's trace sink (apps.Env.Trace) so every
// engine of the run feeds the same recorder.
func (f *FlightRecorder) Sink(next sim.TraceSink) sim.TraceSink {
	return func(ev sim.TraceEvent) {
		f.record(ev)
		if next != nil {
			next(ev)
		}
	}
}

func (f *FlightRecorder) record(ev sim.TraceEvent) {
	f.mu.Lock()
	comp := ev.Comp
	if comp == "" {
		comp = "sim"
	}
	r := f.rings[comp]
	if r == nil {
		r = &evRing{ev: make([]sim.TraceEvent, 0, f.size)}
		f.rings[comp] = r
	}
	r.add(ev)
	trigger := ""
	if ev.Cat == "fault" {
		switch {
		case ev.Name == "handler_crash":
			trigger = fmt.Sprintf("fault: handler_crash on %s at %v", comp, ev.At)
		case ev.Name == "no_route_drop" && f.strict:
			trigger = fmt.Sprintf("strict-routes: no_route_drop on %s at %v (%s)", comp, ev.At, ev.Detail)
		}
	}
	if trigger != "" {
		f.addTriggerLocked(trigger)
	}
	f.mu.Unlock()
}

// Trigger arms the recorder with an explicit reason — the hook for
// recovered invariant panics in the CLI harness.
func (f *FlightRecorder) Trigger(reason string) {
	f.mu.Lock()
	f.addTriggerLocked(reason)
	f.mu.Unlock()
}

func (f *FlightRecorder) addTriggerLocked(reason string) {
	if len(f.triggers) >= maxTriggers {
		f.dropped++
		return
	}
	f.triggers = append(f.triggers, reason)
}

// Triggered reports whether any crash-class event armed the recorder.
func (f *FlightRecorder) Triggered() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.triggers) > 0
}

// Dump renders the report: the trigger list, then each component's ring
// oldest-first. Components sort by name and every line is derived from
// simulated state only, so the dump is deterministic for a deterministic
// run.
func (f *FlightRecorder) Dump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	b.WriteString("=== flight recorder dump ===\n")
	if len(f.triggers) == 0 {
		b.WriteString("trigger: none (dump requested explicitly)\n")
	}
	for i, t := range f.triggers {
		fmt.Fprintf(&b, "trigger[%d]: %s\n", i, t)
	}
	if f.dropped > 0 {
		fmt.Fprintf(&b, "(%d further triggers dropped)\n", f.dropped)
	}
	comps := make([]string, 0, len(f.rings))
	for c := range f.rings {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		r := f.rings[c]
		fmt.Fprintf(&b, "\n== %s (last %d of %d events)\n", c, len(r.ev), r.total)
		n := len(r.ev)
		for i := 0; i < n; i++ {
			// Oldest first: when the ring has wrapped, next points at the
			// oldest slot.
			idx := i
			if n == cap(r.ev) {
				idx = (r.next + i) % n
			}
			ev := r.ev[idx]
			fmt.Fprintf(&b, "  %-14v [%s] %s: %s\n", ev.At, ev.Cat, ev.Name, ev.Detail)
		}
	}
	return b.String()
}

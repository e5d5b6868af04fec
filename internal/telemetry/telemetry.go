// Package telemetry is the per-packet observability layer: packets carry
// an in-band stamp record (san.Stamp) that every data-path stage appends
// per-hop entries to — NIC enqueue, wire transit, switch route/queue time,
// active-handler execution, storage-node service — and a Recorder completes
// finished stamps into deterministic log-bucketed latency histograms
// (metrics.Hist), per-flow path breakdowns, and component queue
// high-watermarks. See OBSERVABILITY.md for the stamp format and the
// zero-overhead-when-off contract: with telemetry off no stamp is ever
// minted, so the data path pays exactly one nil pointer test per stage.
package telemetry

import (
	"sort"
	"sync"

	"activesan/internal/cluster"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// numTypes bounds the per-packet-type aggregate arrays.
const numTypes = int(san.Ack) + 1

// pathAccum is one packet type's per-flow latency decomposition: total
// picoseconds spent in each hop kind, over how many completed packets.
type pathAccum struct {
	packets int64
	ps      [san.NumHopKinds]int64
}

// Recorder collects one cluster's telemetry. A mutex guards the hook
// paths: a partitioned cluster runs one engine per partition on parallel
// goroutines during barrier windows, so a single recorder spanning all
// ranks sees genuinely concurrent stamps and completions. Every recorder
// operation commutes — counter adds, histogram bucket increments, keyed
// map inserts — so the interleaving the lock serializes does not affect
// the folded snapshot: Into stays byte-identical at any partition or
// worker count. Accessors (Stamped, E2E, Into, ...) read without the
// lock and must only be called once the simulation has quiesced.
type Recorder struct {
	c     *cluster.Cluster
	mu    sync.Mutex
	spans *metrics.ChromeTraceWriter

	stamped   int64
	completed int64

	e2e    *metrics.Hist
	byType [numTypes]*metrics.Hist
	hop    [san.NumHopKinds]*metrics.Hist
	path   [numTypes]pathAccum

	handlers map[string]*metrics.Hist
}

// NewRecorder returns an empty recorder. spans, when non-nil, receives one
// Perfetto duration span per completed hop (the -trace-out writer under
// -telemetry).
func NewRecorder(spans *metrics.ChromeTraceWriter) *Recorder {
	return &Recorder{e2e: metrics.NewHist(), handlers: make(map[string]*metrics.Hist), spans: spans}
}

// Attach installs the recorder's hooks on every stamping component in c:
// host NICs mint stamps and complete them at delivery, storage nodes stamp
// disk-originated data, active switches complete handler-consumed packets
// and report handler execution time. Call before the workload runs.
func (r *Recorder) Attach(c *cluster.Cluster) {
	r.c = c
	stamp, complete := r.Stamper(), r.Completer()
	for _, h := range c.Hosts {
		h.NIC().SetTelemetry(stamp, complete)
	}
	for _, s := range c.Stores {
		s.SetTelemetry(stamp, complete)
	}
	for _, sw := range c.Switches {
		sw.SetTelemetry(stamp, complete, r.HandlerDone)
	}
}

// Stamper returns the mint hook: one fresh stamp per packet entering the
// fabric.
func (r *Recorder) Stamper() san.Stamper {
	return func(origin sim.Time) *san.Stamp {
		r.mu.Lock()
		r.stamped++
		r.mu.Unlock()
		return &san.Stamp{Origin: origin}
	}
}

// Completer returns the delivery hook folding a finished stamp into the
// histograms. Hops with End < Start (opened but abandoned on a drop path)
// are skipped.
func (r *Recorder) Completer() san.Completer {
	return func(st *san.Stamp, done sim.Time, typ san.Type) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.completed++
		e2e := int64(done - st.Origin)
		r.e2e.Observe(e2e)
		ti := int(typ)
		if ti >= numTypes {
			ti = numTypes - 1
		}
		if r.byType[ti] == nil {
			r.byType[ti] = metrics.NewHist()
		}
		r.byType[ti].Observe(e2e)
		r.path[ti].packets++
		w := r.spans
		for _, h := range st.Hops {
			if h.End < h.Start {
				continue
			}
			d := h.End - h.Start
			if r.hop[h.Kind] == nil {
				r.hop[h.Kind] = metrics.NewHist()
			}
			r.hop[h.Kind].Observe(int64(d))
			r.path[ti].ps[h.Kind] += int64(d)
			if w != nil {
				w.Span(h.Comp, h.Kind.String(), "telemetry", h.Start, d)
			}
		}
	}
}

// HandlerDone records one active-handler execution. Handler cycles run
// asynchronously on the switch CPU after the triggering packet's life ends,
// so they land in per-handler histograms rather than on the packet's stamp.
func (r *Recorder) HandlerDone(name string, dur sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.handlers[name]
	if h == nil {
		h = metrics.NewHist()
		r.handlers[name] = h
	}
	h.Observe(int64(dur))
}

// Stamped reports how many stamps were minted.
func (r *Recorder) Stamped() int64 { return r.stamped }

// Completed reports how many stamped packets reached a final delivery.
// Packets that die en route (drops, crash discards) mint but never
// complete; the gap is itself a loss signal.
func (r *Recorder) Completed() int64 { return r.completed }

// E2E returns the end-to-end latency histogram (picoseconds).
func (r *Recorder) E2E() *metrics.Hist { return r.e2e }

// Path returns type typ's per-flow decomposition: completed packets and
// total picoseconds per hop kind.
func (r *Recorder) Path(typ san.Type) (packets int64, ps [san.NumHopKinds]int64) {
	ti := int(typ)
	if ti >= numTypes {
		return 0, ps
	}
	return r.path[ti].packets, r.path[ti].ps
}

// Into folds everything into a snapshot under the telemetry/ prefix. All
// values are exact integer counts or deterministic bucket bounds, so
// goldens embedding them are byte-identical at any worker count.
func (r *Recorder) Into(s *metrics.Snapshot) {
	s.SetInt("telemetry/stamped", r.stamped)
	s.SetInt("telemetry/completed", r.completed)
	r.e2e.Into(s, "telemetry/e2e")
	for ti := 0; ti < numTypes; ti++ {
		if h := r.byType[ti]; h != nil {
			h.Into(s, "telemetry/type/"+san.Type(ti).String())
		}
		if p := &r.path[ti]; p.packets > 0 {
			prefix := "telemetry/path/" + san.Type(ti).String()
			s.SetInt(prefix+"/packets", p.packets)
			for k := san.HopKind(0); k < san.NumHopKinds; k++ {
				if p.ps[k] > 0 {
					s.SetInt(prefix+"/"+k.String()+"_ps", p.ps[k])
				}
			}
		}
	}
	for k := san.HopKind(0); k < san.NumHopKinds; k++ {
		if h := r.hop[k]; h != nil {
			h.Into(s, "telemetry/hop/"+k.String())
		}
	}
	names := make([]string, 0, len(r.handlers))
	for n := range r.handlers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.handlers[n].Into(s, "telemetry/handler/"+n)
	}
	r.watermarks(s)
}

// watermarks emits the per-component occupancy high-water gauges under
// telemetry/wm/. These live here, not in the base collector, so the
// telemetry-off snapshot namespace is untouched.
func (r *Recorder) watermarks(s *metrics.Snapshot) {
	if r.c == nil {
		return
	}
	for _, h := range r.c.Hosts {
		s.SetInt("telemetry/wm/"+h.Name()+"/nic_txq_max", int64(h.NIC().MaxTxQueue()))
	}
	for _, st := range r.c.Stores {
		s.SetInt("telemetry/wm/"+st.Name()+"/req_queue_max", int64(st.MaxQueuedReqs()))
	}
	for _, sw := range r.c.Switches {
		stats := sw.Stats()
		s.SetInt("telemetry/wm/"+sw.Name()+"/queue_depth_max", int64(stats.MaxQueueDepth))
		s.SetInt("telemetry/wm/"+sw.Name()+"/pool_free_min", int64(stats.MinPoolFree))
		credits := -1
		for i := 0; i < sw.Config().Ports; i++ {
			port := sw.Port(i)
			for _, l := range []*san.Link{port.In, port.Out} {
				if l == nil {
					continue
				}
				if m := l.MinCredits(); credits < 0 || m < credits {
					credits = m
				}
			}
		}
		if credits >= 0 {
			s.SetInt("telemetry/wm/"+sw.Name()+"/credits_min", int64(credits))
		}
	}
}

package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/sim"
)

func TestChromeTraceWriterZeroEvents(t *testing.T) {
	// A writer closed without a single event must still be a loadable
	// trace document, not a truncated fragment.
	var buf bytes.Buffer
	w := NewChromeTraceWriter(&buf, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("zero-event trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("zero-event trace holds %d events", len(doc.TraceEvents))
	}
}

func TestChromeTraceWriterSpan(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeTraceWriter(&buf, 0)
	w.Span("sw0", "wire", "telemetry", 2*sim.Microsecond, 3*sim.Microsecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span trace invalid: %v\n%s", err, buf.String())
	}
	// One thread_name metadata record plus the span itself.
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			found = true
			if ev.Name != "wire" || ev.Cat != "telemetry" || ev.TS != 2 || ev.Dur != 3 {
				t.Fatalf("span = %+v, want wire/telemetry at ts=2us dur=3us", ev)
			}
		}
	}
	if !found {
		t.Fatalf("no X-phase span in %s", buf.String())
	}
	// Spans past the limit are dropped silently.
	var buf2 bytes.Buffer
	w2 := NewChromeTraceWriter(&buf2, 1)
	w2.Span("a", "x", "c", 0, 1)
	w2.Span("a", "y", "c", 0, 1)
	if w2.Events() != 1 {
		t.Fatalf("events past limit = %d, want 1", w2.Events())
	}
	w2.Close()
}

// runTimelineWorkload builds a minimal cluster, samples timelines at
// interval for the given simulated duration, and returns them.
func runTimelineWorkload(t *testing.T, interval, dur sim.Time) *Timelines {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	c.Start()
	tl := StartTimelines(c, interval)
	eng.Spawn("app", func(p *sim.Proc) {
		p.Sleep(dur)
		tl.Stop()
	})
	eng.Run()
	c.Shutdown()
	return tl
}

func TestTimelineDecimatesInsteadOfStopping(t *testing.T) {
	// A run long enough for 4x maxTimelineSamples ticks must keep sampling
	// to the end at a coarser interval — the cap previously halted the
	// timeline silently at sample 512.
	const interval = 10 * sim.Microsecond
	dur := sim.Time(4*maxTimelineSamples) * interval
	tl := runTimelineWorkload(t, interval, dur)
	n := len(tl.x)
	if n == 0 || n >= maxTimelineSamples {
		t.Fatalf("%d samples, want in [1, %d)", n, maxTimelineSamples)
	}
	iv := tl.smp.Interval()
	if iv <= interval {
		t.Fatalf("interval %v never doubled over a %v run", iv, dur)
	}
	// Sampling must cover the whole run, not stop at the old cap.
	last := tl.x[n-1]
	if covered := last / dur.Seconds(); covered < 0.9 {
		t.Fatalf("last sample at %gs of %v — timeline ended early", last, dur)
	}
	step := iv.Seconds()
	for i := 1; i < n; i++ {
		if d := tl.x[i] - tl.x[i-1]; d < step*0.999 || d > step*1.001 {
			t.Fatalf("spacing %g at %d, want %g", d, i, step)
		}
	}
	for _, g := range tl.gauges {
		if len(g.y) != n {
			t.Fatalf("%s: %d values for %d sample times", g.name, len(g.y), n)
		}
	}
}

func TestTimelineShortRunUndecimated(t *testing.T) {
	// Short runs never hit the cap: interval and sample times unchanged, so
	// existing goldens are untouched by the decimation change.
	// The half-interval tail keeps Stop clear of the 50th tick (a stop on
	// the exact boundary wins over the sample).
	const interval = 10 * sim.Microsecond
	tl := runTimelineWorkload(t, interval, 50*interval+interval/2)
	if iv := tl.smp.Interval(); iv != interval {
		t.Fatalf("interval %v changed on a short run", iv)
	}
	for _, g := range tl.gauges {
		if len(g.y) != 50 || len(tl.x) != 50 {
			t.Fatalf("%s: %d values at %d sample times, want 50", g.name, len(g.y), len(tl.x))
		}
	}
}

func TestTimelineStopThenRestart(t *testing.T) {
	// Stop is terminal for a Timelines set, but a fresh set on the same
	// cluster pattern starts clean — the Stop/restart cycle sweep harnesses
	// use between runs. Stop must also be idempotent.
	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	c.Start()
	tl1 := StartTimelines(c, 10*sim.Microsecond)
	tl2 := (*Timelines)(nil)
	eng.Spawn("app", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		tl1.Stop()
		tl1.Stop() // idempotent
		tl2 = StartTimelines(c, 10*sim.Microsecond)
		p.Sleep(55 * sim.Microsecond)
		tl2.Stop()
	})
	end := eng.Run()
	c.Shutdown()
	// The second set's pending tick fires once more, as a no-op, at 160us.
	if end != 160*sim.Microsecond {
		t.Fatalf("run ended at %v, want 160us — the stopped sampler's next tick", end)
	}
	s1, s2 := NewSnapshot(), NewSnapshot()
	tl1.Into(s1)
	tl2.Into(s2)
	if len(s1.Series) == 0 || len(s2.Series) == 0 {
		t.Fatalf("series missing: first %d, second %d", len(s1.Series), len(s2.Series))
	}
	for name, sr := range s2.Series {
		if n := len(sr.X); n != 5 {
			t.Fatalf("restarted %s took %d samples, want 5", name, n)
		}
		if sr.X[0] <= (100 * sim.Microsecond).Seconds() {
			t.Fatalf("restarted %s sampled at %gs, before its own start", name, sr.X[0])
		}
	}
}

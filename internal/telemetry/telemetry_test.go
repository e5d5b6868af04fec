// The tests live in an external package so they can drive real workloads
// through internal/apps — the apps harness imports telemetry, so an
// internal test package would be an import cycle.
package telemetry_test

import (
	"fmt"
	"strings"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/apps/mpeg"
	"activesan/internal/fault"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/telemetry"
)

// smallMPEG shrinks the workload so telemetry tests stay fast.
func smallMPEG() mpeg.Params {
	prm := mpeg.DefaultParams()
	prm.FileSize = 256 * 1024
	return prm
}

// telemetryMPEG is smallMPEG with telemetry armed.
func telemetryMPEG() mpeg.Params {
	prm := smallMPEG()
	prm.Env.Telemetry = true
	return prm
}

func TestTelemetryOffLeavesNoTrace(t *testing.T) {
	run := mpeg.Run(apps.Active, smallMPEG())
	for name := range run.Metrics.Values {
		if strings.HasPrefix(name, "telemetry/") {
			t.Fatalf("telemetry off, but snapshot holds %s", name)
		}
	}
}

func TestTelemetryHistogramsPopulate(t *testing.T) {
	run := mpeg.Run(apps.Active, telemetryMPEG())
	m := run.Metrics
	if m.Get("telemetry/stamped") == 0 || m.Get("telemetry/completed") == 0 {
		t.Fatalf("stamped=%g completed=%g, want both > 0",
			m.Get("telemetry/stamped"), m.Get("telemetry/completed"))
	}
	if m.Get("telemetry/completed") > m.Get("telemetry/stamped") {
		t.Fatalf("completed %g > stamped %g", m.Get("telemetry/completed"), m.Get("telemetry/stamped"))
	}
	for _, name := range []string{
		"telemetry/e2e/count", "telemetry/e2e/p50", "telemetry/e2e/p99", "telemetry/e2e/p999",
		"telemetry/hop/wire/count", "telemetry/hop/route/count",
	} {
		if m.Get(name) == 0 && name != "telemetry/e2e/p50" {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	// Quantiles are ordered.
	if !(m.Get("telemetry/e2e/p50") <= m.Get("telemetry/e2e/p99") &&
		m.Get("telemetry/e2e/p99") <= m.Get("telemetry/e2e/p999") &&
		m.Get("telemetry/e2e/p999") <= m.Get("telemetry/e2e/max")) {
		t.Fatalf("quantiles out of order: p50=%g p99=%g p999=%g max=%g",
			m.Get("telemetry/e2e/p50"), m.Get("telemetry/e2e/p99"),
			m.Get("telemetry/e2e/p999"), m.Get("telemetry/e2e/max"))
	}
	// The active run consumed data packets on the switch: a handler path
	// breakdown and per-handler execution histogram must exist.
	if m.Get("telemetry/path/active/packets") == 0 {
		t.Error("no active-message path breakdown")
	}
	if m.Get("telemetry/handler/mpeg-filter/count") == 0 {
		t.Error("no mpeg-filter handler histogram")
	}
	// Watermarks for every component class.
	found := 0
	for name := range m.Values {
		if strings.HasPrefix(name, "telemetry/wm/") {
			found++
		}
	}
	if found == 0 {
		t.Error("no telemetry/wm/ watermarks")
	}
}

func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	a := mpeg.Run(apps.ActivePref, telemetryMPEG())
	b := mpeg.Run(apps.ActivePref, telemetryMPEG())
	for name, va := range a.Metrics.Values {
		if !strings.HasPrefix(name, "telemetry/") {
			continue
		}
		if vb := b.Metrics.Get(name); vb != va {
			t.Fatalf("%s: %g vs %g across identical runs", name, va, vb)
		}
	}
}

// crashedMPEG is smallMPEG under a handler crash early in the run, traced
// into fr.
func crashedMPEG(fr *telemetry.FlightRecorder) mpeg.Params {
	prm := smallMPEG()
	prm.Env.Trace = fr.Sink(nil)
	prm.Env.Faults = &fault.Plan{Events: []fault.Event{{AtNS: 50_000, Kind: fault.HandlerCrash, Switch: 0}}}
	prm.Env.FaultSeed = 1
	return prm
}

func TestFlightRecorderTriggersOnHandlerCrash(t *testing.T) {
	fr := telemetry.NewFlightRecorder(0, false)
	run := mpeg.Run(apps.Active, crashedMPEG(fr))
	if run.Extra["fallback"] != true {
		t.Fatalf("crash plan did not force the host fallback: Extra=%v", run.Extra)
	}
	if !fr.Triggered() {
		t.Fatal("flight recorder not triggered by handler_crash")
	}
	dump := fr.Dump()
	if !strings.Contains(dump, "handler_crash") {
		t.Fatalf("dump lacks the crash event:\n%s", dump)
	}
	if !strings.Contains(dump, "trigger[0]: fault: handler_crash") {
		t.Fatalf("dump lacks the trigger line:\n%s", dump)
	}
	// Bounded: each component section holds at most DefaultRingSize events.
	for _, line := range strings.Split(dump, "\n") {
		open := strings.LastIndex(line, "(last ")
		if !strings.HasPrefix(line, "== ") || open < 0 {
			continue
		}
		var kept, total int
		if _, err := fmt.Sscanf(line[open:], "(last %d of %d events)", &kept, &total); err != nil {
			t.Fatalf("unparseable ring header %q: %v", line, err)
		}
		if kept > telemetry.DefaultRingSize || kept > total {
			t.Fatalf("ring overflow: %s", line)
		}
	}
}

func TestFlightRecorderDumpDeterministic(t *testing.T) {
	dumps := make([]string, 2)
	for i := range dumps {
		fr := telemetry.NewFlightRecorder(0, false)
		mpeg.Run(apps.Active, crashedMPEG(fr))
		dumps[i] = fr.Dump()
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("dumps differ across identical crashed runs:\n--- a\n%s\n--- b\n%s", dumps[0], dumps[1])
	}
}

func TestFlightRecorderTeesToNext(t *testing.T) {
	fr := telemetry.NewFlightRecorder(4, false)
	var forwarded []sim.TraceEvent
	sink := fr.Sink(func(ev sim.TraceEvent) { forwarded = append(forwarded, ev) })
	for i := 0; i < 10; i++ {
		sink(sim.TraceEvent{At: sim.Time(i), Cat: "c", Name: "n", Comp: "x"})
	}
	if len(forwarded) != 10 {
		t.Fatalf("forwarded %d events, want all 10", len(forwarded))
	}
	if fr.Triggered() {
		t.Fatal("benign events triggered the recorder")
	}
	dump := fr.Dump()
	if !strings.Contains(dump, "last 4 of 10 events") {
		t.Fatalf("ring not bounded at 4:\n%s", dump)
	}
	// The ring keeps the newest events, oldest first.
	if !strings.Contains(dump, "trigger: none") {
		t.Fatalf("untriggered dump lacks the explicit marker:\n%s", dump)
	}
}

func TestFlightRecorderStrictRoutesTrigger(t *testing.T) {
	fr := telemetry.NewFlightRecorder(0, false)
	// Without -strict-routes a no_route_drop is informational.
	fr.Sink(nil)(sim.TraceEvent{Cat: "fault", Name: "no_route_drop", Comp: "sw0"})
	if fr.Triggered() {
		t.Fatal("no_route_drop triggered without -strict-routes")
	}
	fr = telemetry.NewFlightRecorder(0, true)
	fr.Sink(nil)(sim.TraceEvent{Cat: "fault", Name: "no_route_drop", Comp: "sw0", Detail: "dst=7"})
	if !fr.Triggered() {
		t.Fatal("no_route_drop did not trigger under -strict-routes")
	}
	if dump := fr.Dump(); !strings.Contains(dump, "strict-routes") {
		t.Fatalf("dump lacks strict-routes trigger:\n%s", dump)
	}
}

func TestRecorderSkipsAbandonedHops(t *testing.T) {
	// A hop opened but never closed (packet dropped mid-queue) has End <
	// Start; completion must skip it rather than observe a negative
	// duration.
	rec := telemetry.NewRecorder(nil)
	complete := rec.Completer()
	st := &san.Stamp{Origin: 100}
	st.Add(san.HopWire, "l0", 100, 200)
	st.Open(san.HopQueue, "sw0", 200) // never closed: End stays 0 < Start
	complete(st, 300, san.Data)
	s := metrics.NewSnapshot()
	rec.Into(s)
	if got := s.Get("telemetry/hop/wire/count"); got != 1 {
		t.Fatalf("wire count = %g, want 1", got)
	}
	if got := s.Get("telemetry/hop/queue/count"); got != 0 {
		t.Fatalf("abandoned queue hop counted: %g", got)
	}
	if got := s.Get("telemetry/e2e/count"); got != 1 {
		t.Fatalf("e2e count = %g, want 1", got)
	}
}

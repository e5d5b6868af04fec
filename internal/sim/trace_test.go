package sim

import (
	"fmt"
	"testing"
)

func TestEmitTypedEvents(t *testing.T) {
	e := NewEngine()
	var got []TraceEvent
	e.SetTraceSink(func(ev TraceEvent) { got = append(got, ev) })
	if !e.Tracing() {
		t.Fatal("Tracing() = false with a sink installed")
	}
	e.Schedule(10*Nanosecond, func() {
		e.Emit("packet", "send", "sw0", "dst=3 size=512")
	})
	e.Run()
	if len(got) != 1 {
		t.Fatalf("captured %d events, want 1", len(got))
	}
	ev := got[0]
	if ev.At != 10*Nanosecond || ev.Cat != "packet" || ev.Name != "send" ||
		ev.Comp != "sw0" || ev.Detail != "dst=3 size=512" {
		t.Fatalf("event = %+v", ev)
	}
	if s := ev.String(); s != "sw0: dst=3 size=512" {
		t.Fatalf("String() = %q", s)
	}
}

func TestTracingGuard(t *testing.T) {
	e := NewEngine()
	if e.Tracing() {
		t.Fatal("Tracing() = true on a fresh engine")
	}
	e.Emit("packet", "send", "x", "dropped silently") // no sink: must not panic
	var n int
	e.SetTraceSink(func(TraceEvent) { n++ })
	if !e.Tracing() {
		t.Fatal("Tracing() = false after SetTraceSink")
	}
	e.Emit("packet", "send", "x", "traced")
	e.SetTraceSink(nil)
	if e.Tracing() {
		t.Fatal("Tracing() = true after SetTraceSink(nil)")
	}
	e.Emit("packet", "send", "x", "dropped after disable")
	if n != 1 {
		t.Fatalf("sink saw %d events, want 1", n)
	}
}

// BenchmarkTracingDisabledGuarded measures the recommended hot-path
// pattern with tracing off: a Tracing() check that skips argument
// construction entirely. This should be ~1ns — a single predictable
// branch — so instrumented paths cost nothing in ordinary runs.
func BenchmarkTracingDisabledGuarded(b *testing.B) {
	e := NewEngine()
	src, dst, size := 3, 7, 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Tracing() {
			e.Emit("packet", "send", "sw0", fmt.Sprintf("src=%d dst=%d size=%d", src, dst, size))
		}
	}
}

// BenchmarkTracingEnabled bounds the cost when a sink is installed.
func BenchmarkTracingEnabled(b *testing.B) {
	e := NewEngine()
	var n int
	e.SetTraceSink(func(TraceEvent) { n++ })
	src, dst, size := 3, 7, 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Tracing() {
			e.Emit("packet", "send", "sw0", fmt.Sprintf("src=%d dst=%d size=%d", src, dst, size))
		}
	}
	_ = n
}

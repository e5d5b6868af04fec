package stats

import (
	"strings"
	"testing"

	"activesan/internal/metrics"
	"activesan/internal/sim"
)

func sampleResult() *Result {
	return &Result{
		ID:    "figX",
		Title: "sample",
		Runs: []Run{
			{Config: "normal", Time: 100 * sim.Millisecond, HostBusy: 20 * sim.Millisecond,
				HostStall: 10 * sim.Millisecond, Traffic: 1000, Hosts: 1},
			{Config: "active", Time: 50 * sim.Millisecond, HostBusy: 5 * sim.Millisecond,
				SwitchBusy: 30 * sim.Millisecond, Traffic: 250, Hosts: 1},
		},
	}
}

func TestHostUtil(t *testing.T) {
	r := Run{Time: 100, HostBusy: 20, HostStall: 10, Hosts: 1}
	if got := r.HostUtil(); got != 0.3 {
		t.Fatalf("util = %v, want 0.3", got)
	}
	r.Hosts = 2
	if got := r.HostUtil(); got != 0.15 {
		t.Fatalf("per-host util = %v, want 0.15", got)
	}
	if (Run{}).HostUtil() != 0 {
		t.Fatal("zero run should have zero util")
	}
	// Zero time or zero hosts alone must not divide by zero.
	if got := (Run{HostBusy: 10, Hosts: 1}).HostUtil(); got != 0 {
		t.Fatalf("zero-time util = %v, want 0", got)
	}
	if got := (Run{Time: 100, HostBusy: 10}).HostUtil(); got != 0 {
		t.Fatalf("zero-hosts util = %v, want 0", got)
	}
}

func TestSwitchUtil(t *testing.T) {
	r := Run{Time: 100, SwitchBusy: 25, SwitchStall: 25}
	if got := r.SwitchUtil(); got != 0.5 {
		t.Fatalf("switch util = %v, want 0.5", got)
	}
	if got := (Run{SwitchBusy: 25}).SwitchUtil(); got != 0 {
		t.Fatalf("zero-time switch util = %v, want 0", got)
	}
}

func TestSpeedupAndBaseline(t *testing.T) {
	res := sampleResult()
	if res.Baseline().Config != "normal" {
		t.Fatal("baseline is not the normal run")
	}
	if got := res.Speedup("active"); got != 2.0 {
		t.Fatalf("speedup = %v, want 2", got)
	}
	if res.Speedup("missing") != 0 {
		t.Fatal("missing config should give 0 speedup")
	}
}

func TestBreakdownBar(t *testing.T) {
	b := BreakdownBar("x", 30, 20, 100, 1)
	if b.Busy != 30 || b.Stall != 20 || b.Idle != 50 {
		t.Fatalf("bar = %+v", b)
	}
	if b.Total() != 100 {
		t.Fatalf("total = %v", b.Total())
	}
	// Per-CPU averaging.
	b = BreakdownBar("x", 40, 0, 100, 4)
	if b.Busy != 10 || b.Idle != 90 {
		t.Fatalf("averaged bar = %+v", b)
	}
	// Idle clamps at zero if accounting overshoots.
	b = BreakdownBar("x", 80, 40, 100, 1)
	if b.Idle != 0 {
		t.Fatalf("idle = %v, want clamp to 0", b.Idle)
	}
	if b.Total() != 120 {
		t.Fatalf("clamped total = %v, want busy+stall", b.Total())
	}
	// A non-positive CPU count falls back to 1 instead of dividing by zero.
	b = BreakdownBar("x", 30, 20, 100, 0)
	if b.Busy != 30 || b.Stall != 20 || b.Idle != 50 {
		t.Fatalf("n=0 bar = %+v", b)
	}
}

func TestFormatSecondaryMetrics(t *testing.T) {
	res := sampleResult()
	m := metrics.NewSnapshot()
	m.Set("sw0/port1/out/util", 0.5)
	res.Runs[0].Metrics = m
	out := res.Format()
	if !strings.Contains(out, "-- secondary metrics --") {
		t.Fatalf("missing secondary metrics block:\n%s", out)
	}
	if !strings.Contains(out, "link util max 50.0% (sw0/port1/out)") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	// Runs without metrics (or with nothing to summarize) print no block.
	res.Runs[0].Metrics = nil
	if strings.Contains(res.Format(), "secondary metrics") {
		t.Fatal("metrics block printed for metric-less runs")
	}
}

func TestFormatContainsEverything(t *testing.T) {
	res := sampleResult()
	res.Bars = []Bar{{Label: "n-HP", Busy: 1, Stall: 2, Idle: 3}}
	res.Series = []Series{{Name: "lat", X: []float64{2, 4}, Y: []float64{1.5, 2.5}}}
	res.Notes = []string{"hello note"}
	out := res.Format()
	for _, want := range []string{"figX", "normal", "active", "n-HP", "series lat", "hello note", "0.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestSpeedupSeries(t *testing.T) {
	normal := Series{X: []float64{2, 4, 8}, Y: []float64{10, 20, 40}}
	active := Series{X: []float64{2, 4, 8}, Y: []float64{10, 10, 10}}
	sp := SpeedupSeries("speedup", normal, active)
	if len(sp.X) != 3 {
		t.Fatalf("points = %d", len(sp.X))
	}
	if sp.Y[0] != 1 || sp.Y[2] != 4 {
		t.Fatalf("speedups = %v", sp.Y)
	}
	if sp.MaxY() != 4 {
		t.Fatalf("max = %v", sp.MaxY())
	}
	// Mismatched X values are skipped rather than misaligned.
	active2 := Series{X: []float64{2, 8}, Y: []float64{5, 5}}
	sp2 := SpeedupSeries("s", normal, active2)
	if len(sp2.X) != 2 || sp2.Y[1] != 8 {
		t.Fatalf("sparse speedups = %+v", sp2)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("keys = %v", got)
	}
}

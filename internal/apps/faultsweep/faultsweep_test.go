package faultsweep

import (
	"strings"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/apps/mpeg"
	"activesan/internal/fault"
	"activesan/internal/sim"
)

// smallParams shrinks the workload so each test run finishes in milliseconds
// while still spanning several chunks and GOPs.
func smallParams() mpeg.Params {
	prm := mpeg.DefaultParams()
	prm.FileSize = 256 * 1024
	prm.ChunkSize = 32 * 1024
	return prm
}

func TestPlanFor(t *testing.T) {
	if PlanFor(0, 0) != nil {
		t.Fatal("zero rate should mean no plan")
	}
	p := PlanFor(1, 0.001)
	if p == nil || len(p.Links) != 1 || p.Links[0].Drop != 0.001 || p.Seed != baseSeed+1 {
		t.Fatalf("PlanFor(1, 0.001) = %+v", p)
	}
	if len(p.Disks) != 0 {
		t.Fatal("point 1 should not inject disk errors")
	}
	p2 := PlanFor(2, 0.005)
	if len(p2.Disks) != 1 || p2.Links[0].DelayNS == 0 {
		t.Fatalf("point 2 should add delays and disk errors: %+v", p2)
	}
}

func TestLossRecoveryMatchesBaseline(t *testing.T) {
	prm := smallParams()
	stream := mpeg.BuildStream(prm)
	base, baseInj := mpeg.RunFaulted(apps.NormalPref, prm, stream)
	if baseInj != nil {
		t.Fatal("nil plan armed an injector")
	}
	want, _ := base.Extra["checksum"].(string)
	if want == "" {
		t.Fatal("baseline run has no checksum")
	}

	plan := &fault.Plan{Seed: 42, Links: []fault.LinkRule{{Drop: 0.01}}}
	run, inj := mpeg.RunFaulted(apps.NormalPref, withPlan(prm, plan), stream)
	if inj == nil {
		t.Fatal("loss plan armed no injector")
	}
	got, _ := run.Extra["checksum"].(string)
	if got != want {
		t.Fatalf("checksum %s under loss, want %s", got, want)
	}
	c := inj.Counts()
	if c.Injected == 0 {
		t.Fatal("1% loss injected nothing — plan not armed on the data path")
	}
	if !inj.Balanced() {
		t.Fatalf("accounting unbalanced: injected %d, recovered %d, tolerated %d, pending %d",
			c.Injected, c.Recovered, c.Tolerated, inj.Pending())
	}
	// Retransmissions may hide entirely inside pipeline slack at this
	// scale, so only require that loss never makes the run faster.
	if run.Time < base.Time {
		t.Fatalf("lossy run (%v) faster than baseline (%v)", run.Time, base.Time)
	}
}

func TestFaultedRunsAreDeterministic(t *testing.T) {
	prm := smallParams()
	stream := mpeg.BuildStream(prm)
	plan := &fault.Plan{Seed: 7, Links: []fault.LinkRule{{Drop: 0.005}}}
	a, ai := mpeg.RunFaulted(apps.NormalPref, withPlan(prm, plan), stream)
	b, bi := mpeg.RunFaulted(apps.NormalPref, withPlan(prm, plan), stream)
	if a.Time != b.Time {
		t.Fatalf("same plan, different completion: %v vs %v", a.Time, b.Time)
	}
	if ai.Counts() != bi.Counts() {
		t.Fatalf("same plan, different ledgers: %+v vs %+v", ai.Counts(), bi.Counts())
	}
	// A different seed must change the loss pattern (with overwhelming
	// probability at hundreds of draws).
	other := &fault.Plan{Seed: 8, Links: []fault.LinkRule{{Drop: 0.005}}}
	c, ci := mpeg.RunFaulted(apps.NormalPref, withPlan(prm, other), stream)
	if a.Time == c.Time && ai.Counts() == ci.Counts() {
		t.Fatal("different seeds produced identical runs")
	}
	// The CLI's -fault-seed overrides the plan's own seed.
	prm.Env.Faults, prm.Env.FaultSeed = plan, 8
	d, di := mpeg.RunFaulted(apps.NormalPref, prm, stream)
	if d.Time != c.Time || di.Counts() != ci.Counts() {
		t.Fatal("seed override did not reproduce the plan-seeded run")
	}
}

func TestHandlerCrashFallsBackToHost(t *testing.T) {
	prm := smallParams()
	stream := mpeg.BuildStream(prm)
	normal, _ := mpeg.RunFaulted(apps.NormalPref, prm, stream)
	want, _ := normal.Extra["checksum"].(string)

	activeBase := mpeg.Run(apps.Active, prm)
	if activeBase.Time <= 0 {
		t.Fatal("active baseline did not complete")
	}
	plan := &fault.Plan{Events: []fault.Event{{
		AtNS: int64((activeBase.Time / 3) / sim.Nanosecond),
		Kind: fault.HandlerCrash,
	}}}
	run, inj := mpeg.RunFaulted(apps.Active, withPlan(prm, plan), stream)
	if fellBack, _ := run.Extra["fallback"].(bool); !fellBack {
		t.Fatal("crash mid-stream did not trigger the host fallback")
	}
	if got, _ := run.Extra["checksum"].(string); got != want {
		t.Fatalf("fallback checksum %s, want %s", got, want)
	}
	if c := inj.Counts(); c.Crashes != 1 || !inj.Balanced() {
		t.Fatalf("crash accounting: %+v pending=%d", c, inj.Pending())
	}
	if run.Time <= activeBase.Time {
		t.Fatalf("crashed run (%v) not slower than clean active run (%v)", run.Time, activeBase.Time)
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	res := RunAll(smallParams())
	// One run per loss rate plus the active baseline and the crash run.
	if want := len(LossRates) + 2; len(res.Runs) != want {
		t.Fatalf("%d runs, want %d", len(res.Runs), want)
	}
	for _, n := range res.Notes {
		for _, bad := range []string{"CHECKSUM MISMATCH", "UNBALANCED", "NO FALLBACK"} {
			if strings.Contains(n, bad) {
				t.Fatalf("sweep note reports %q: %s", bad, n)
			}
		}
	}
	if len(res.Series) != 2 || len(res.Series[0].Y) != len(LossRates) {
		t.Fatalf("series malformed: %+v", res.Series)
	}
}

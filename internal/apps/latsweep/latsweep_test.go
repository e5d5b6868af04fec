package latsweep

import (
	"testing"

	"activesan/internal/apps"
	"activesan/internal/collective"
	"activesan/internal/san"
)

// smallParams keeps the test sweep fast.
func smallParams() Params {
	return Params{HostCounts: []int{4, 8}, Reduce: collective.DefaultParams()}
}

func TestRunPointPopulatesTelemetry(t *testing.T) {
	pt := RunPoint(apps.Env{}, 8, true, collective.DefaultParams())
	if !pt.Correct {
		t.Fatal("active reduce incorrect")
	}
	if pt.Packets == 0 {
		t.Fatal("no completed packets recorded")
	}
	m := pt.Metrics
	if m.Get("telemetry/e2e/count") == 0 || m.Get("telemetry/e2e/p99") == 0 {
		t.Fatalf("e2e histogram empty: count=%g p99=%g",
			m.Get("telemetry/e2e/count"), m.Get("telemetry/e2e/p99"))
	}
	// The active variant must execute the combine handler in-fabric.
	if m.Get("telemetry/path/active/packets") == 0 {
		t.Error("active run shows no active-message path breakdown")
	}
	var hopTotal int64
	for k := san.HopKind(0); k < san.NumHopKinds; k++ {
		hopTotal += pt.HopPs[k]
	}
	if hopTotal == 0 {
		t.Error("per-hop decomposition sums to zero")
	}
}

func TestPassiveRunsNoHandler(t *testing.T) {
	pt := RunPoint(apps.Env{}, 8, false, collective.DefaultParams())
	if !pt.Correct {
		t.Fatal("passive reduce incorrect")
	}
	if got := pt.Metrics.Get("telemetry/path/active/packets"); got != 0 {
		t.Fatalf("passive run completed %g active messages, want 0", got)
	}
	if pt.HopPs[san.HopHandler] != 0 {
		t.Fatalf("passive run spent %d ps in handlers", pt.HopPs[san.HopHandler])
	}
}

func TestActiveBeatsPassiveAtScale(t *testing.T) {
	// The paper's path-length argument, measured: at 16 hosts the active
	// tree's p99 end-to-end latency beats the host MST's.
	prm := collective.DefaultParams()
	pass := RunPoint(apps.Env{}, 16, false, prm)
	act := RunPoint(apps.Env{}, 16, true, prm)
	pp, ap := pass.Metrics.Get("telemetry/e2e/p99"), act.Metrics.Get("telemetry/e2e/p99")
	if pp == 0 || ap == 0 {
		t.Fatalf("p99 missing: passive=%g active=%g", pp, ap)
	}
	if ap >= pp {
		t.Fatalf("active p99 %g >= passive p99 %g at 16 hosts", ap, pp)
	}
}

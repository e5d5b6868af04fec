package hdlsweep

import (
	"strings"
	"testing"

	"activesan/internal/hdl"
)

func shrunk() Params {
	prm := DefaultParams()
	prm.StreamBytes = 64 << 10
	prm.DiffSeeds = 16
	return prm
}

// TestSweepOutputsMatchOracle runs the shrunk sweep: every handler's active
// (switch-compiled) and passive (host-interpreted) outputs must match the
// interpreter oracle, and the differential batch must report zero
// divergences.
func TestSweepOutputsMatchOracle(t *testing.T) {
	res := RunAll(shrunk())
	for _, n := range res.Notes {
		if strings.Contains(n, "DIVERGED") || strings.Contains(n, "COMPILE ERROR") {
			t.Errorf("sweep note: %s", n)
		}
	}
	var sawBatch bool
	for _, n := range res.Notes {
		if strings.Contains(n, "differential batch") {
			sawBatch = true
			if !strings.HasSuffix(n, "0 divergences") {
				t.Errorf("differential batch diverged: %s", n)
			}
		}
	}
	if !sawBatch {
		t.Error("no differential batch note")
	}
	if len(res.Runs) != 2*len(Cases(nil)) {
		t.Errorf("%d runs, want %d (active+passive per handler)", len(res.Runs), 2*len(Cases(nil)))
	}
}

// TestExtraHandlerJoinsSweep: a handler passed as Params.Extra (the
// -handler-src hook) becomes a fourth case and passes the oracle check like
// the built-ins.
func TestExtraHandlerJoinsSweep(t *testing.T) {
	c, err := hdl.Compile(`
handler xorfold {
	var acc
	on word x {
		acc = acc ^ x
	}
	end {
		emit acc
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := Cases(c)
	if len(cases) != 4 || cases[3].Name != "xorfold" {
		t.Fatalf("cases = %d (%v), want the extra handler fourth", len(cases), cases)
	}
	prm := shrunk()
	prm.StreamBytes = 16 << 10
	prm.DiffSeeds = 1
	prm.Extra = c
	res := RunAll(prm)
	for _, n := range res.Notes {
		if strings.Contains(n, "DIVERGED") || strings.Contains(n, "COMPILE ERROR") {
			t.Errorf("sweep note: %s", n)
		}
	}
	var found bool
	for _, n := range res.Notes {
		if strings.Contains(n, "xorfold") {
			found = true
		}
	}
	if !found {
		t.Error("extra handler missing from the sweep notes")
	}
}

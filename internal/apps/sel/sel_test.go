package sel

import (
	"testing"

	"activesan/internal/apps"
)

// testParams scales the table down so the four-configuration suite runs in
// seconds; shapes are scale-free.
func testParams() Params {
	prm := DefaultParams()
	prm.TableBytes = 8 << 20
	return prm
}

func TestKeyDeterministic(t *testing.T) {
	if Key(42) != Key(42) {
		t.Fatal("record key not deterministic")
	}
	if Key(1) == Key(2) && Key(2) == Key(3) {
		t.Fatal("record keys look constant")
	}
}

func TestSelectivityNear25Percent(t *testing.T) {
	prm := testParams()
	n := prm.TableBytes / RecordSize
	got := prm.ExpectedMatches()
	frac := float64(got) / float64(n)
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("selectivity = %.3f, want ~0.25", frac)
	}
}

func TestAllConfigsAgreeOnMatches(t *testing.T) {
	prm := testParams()
	want := prm.ExpectedMatches()
	for _, cfg := range apps.AllConfigs {
		run := Run(cfg, prm)
		if got := run.Extra["matches"].(int64); got != want {
			t.Errorf("%s: matches = %d, want %d", cfg, got, want)
		}
		if rep := run.Extra["reported"].(int64); rep != want {
			t.Errorf("%s: reported = %d, want %d", cfg, rep, want)
		}
	}
}

func TestShapeSelect(t *testing.T) {
	// Paper Figures 7/8: normal is worst; the other three are nearly tied
	// (I/O bound); active traffic is ~25% of normal; average normal host
	// utilization is many times the active one.
	prm := testParams()
	res := RunAll(prm)
	normal := res.Baseline()
	np, _ := res.Run("normal+pref")
	a, _ := res.Run("active")
	ap, _ := res.Run("active+pref")

	if !(normal.Time > np.Time) {
		t.Errorf("normal (%v) should be worst (normal+pref %v)", normal.Time, np.Time)
	}
	// The three overlapped configs are within 10% of each other.
	for _, r := range []struct {
		name string
		t    float64
	}{{"active", float64(a.Time)}, {"active+pref", float64(ap.Time)}} {
		ratio := r.t / float64(np.Time)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s time ratio vs normal+pref = %.3f, want ~1", r.name, ratio)
		}
	}
	// Traffic: matches (25%) vs full table.
	ratio := float64(a.Traffic) / float64(normal.Traffic)
	if ratio < 0.2 || ratio > 0.32 {
		t.Errorf("active traffic ratio = %.3f, want ~0.25", ratio)
	}
	// Utilization gap: paper reports ~21x between the normal and active
	// averages; require at least 5x at this scale.
	normAvg := (normal.HostUtil() + np.HostUtil()) / 2
	actAvg := (a.HostUtil() + ap.HostUtil()) / 2
	if normAvg < 5*actAvg {
		t.Errorf("normal util %.4f not much larger than active %.4f", normAvg, actAvg)
	}
}

func TestSelectivitySweep(t *testing.T) {
	// The active traffic ratio must track the predicate's selectivity.
	for _, perMille := range []int64{100, 500, 900} {
		prm := testParams()
		prm.TableBytes = 4 << 20
		prm.SelectPermille = perMille
		res := RunAll(prm)
		a, _ := res.Run("active")
		ratio := float64(a.Traffic) / float64(res.Baseline().Traffic)
		want := float64(perMille) / 1000
		if ratio < want-0.05 || ratio > want+0.05 {
			t.Errorf("selectivity %.1f: traffic ratio %.3f, want ~%.3f", want, ratio, want)
		}
	}
}

// ExpectedMatches counts passing records directly (the test oracle).
func (prm Params) ExpectedMatches() int64 {
	n := prm.TableBytes / RecordSize
	var c int64
	for i := int64(0); i < n; i++ {
		if prm.Matches(i) {
			c++
		}
	}
	return c
}

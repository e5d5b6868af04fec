package hashjoin

import (
	"testing"

	"activesan/internal/apps"
	"activesan/internal/stats"
)

// testParams scales the join down for fast tests (R 2 MB, S 8 MB) while
// keeping the record size, bit-vector and ratios.
func testParams() Params {
	prm := DefaultParams()
	prm.RBytes = 2 << 20
	prm.SBytes = 8 << 20
	return prm
}

func TestBitvec(t *testing.T) {
	bv := NewBitvec(1 << 10)
	if bv.Get(5) {
		t.Fatal("fresh bit set")
	}
	bv.Set(5)
	bv.Set(1023)
	if !bv.Get(5) || !bv.Get(1023) {
		t.Fatal("set bits not visible")
	}
	if bv.Get(6) {
		t.Fatal("neighbouring bit leaked")
	}
}

func TestReductionFactorNearPaper(t *testing.T) {
	// The 0.24 factor depends on the bit-vector's fill density, which the
	// paper fixes via R's full 16 MB; evaluate the oracle at full scale
	// (pure computation — no simulation).
	prm := DefaultParams()
	passes, matches := prm.Oracle()
	nS := prm.SBytes / RecordSize
	frac := float64(passes) / float64(nS)
	// Paper: "The reduction factor of bit-vector filtering is 0.24."
	if frac < 0.20 || frac > 0.29 {
		t.Fatalf("pass fraction = %.3f, want ~0.24", frac)
	}
	if matches <= 0 || matches > passes {
		t.Fatalf("matches=%d passes=%d inconsistent", matches, passes)
	}
}

func TestAllConfigsAgree(t *testing.T) {
	prm := testParams()
	wantPasses, wantMatches := prm.Oracle()
	for _, cfg := range apps.AllConfigs {
		run := Run(cfg, prm)
		if got := run.Extra["passes"].(int64); got != wantPasses {
			t.Errorf("%s: passes = %d, want %d", cfg, got, wantPasses)
		}
		if got := run.Extra["matches"].(int64); got != wantMatches {
			t.Errorf("%s: matches = %d, want %d", cfg, got, wantMatches)
		}
		if got := run.Extra["reported"].(int64); got != wantPasses {
			t.Errorf("%s: switch reported %d passes, want %d", cfg, got, wantPasses)
		}
	}
}

func TestShapeHashJoin(t *testing.T) {
	// Paper Figures 5/6: active beats normal without prefetch; the two
	// prefetch cases are nearly tied; S-phase traffic drops by the filter
	// factor; the host's cache-stall share shrinks in the active cases.
	prm := testParams()
	res := RunAll(prm)
	normal := res.Baseline()
	np, _ := res.Run("normal+pref")
	a, _ := res.Run("active")
	ap, _ := res.Run("active+pref")

	if !(a.Time < normal.Time) {
		t.Errorf("active (%v) not faster than normal (%v)", a.Time, normal.Time)
	}
	parity := float64(ap.Time) / float64(np.Time)
	if parity < 0.9 || parity > 1.1 {
		t.Errorf("prefetch cases should tie: active+pref/normal+pref = %.3f", parity)
	}
	// Traffic: active = R (forwarded) + ~24% of S; normal = R + S.
	ratio := float64(a.Traffic) / float64(normal.Traffic)
	if ratio < 0.30 || ratio > 0.55 {
		t.Errorf("active traffic ratio = %.3f, want ~0.4 at this R:S", ratio)
	}
	// Cache stall share shrinks on the host.
	stallShare := func(r stats.Run) float64 { return float64(r.HostStall) / float64(r.Time) }
	if stallShare(ap) >= stallShare(np) {
		t.Errorf("active+pref stall share %.3f not below normal+pref %.3f",
			stallShare(ap), stallShare(np))
	}
}

func TestMatchPercentTracksPasses(t *testing.T) {
	// Raising the true-match share raises the filter pass rate accordingly
	// in every configuration.
	low, high := testParams(), testParams()
	low.MatchPercent = 5
	high.MatchPercent = 40
	lp, _ := low.Oracle()
	hp, _ := high.Oracle()
	if lp >= hp {
		t.Fatalf("oracle passes did not grow: %d -> %d", lp, hp)
	}
	for _, prm := range []Params{low, high} {
		want, _ := prm.Oracle()
		run := Run(apps.Active, prm)
		if got := run.Extra["passes"].(int64); got != want {
			t.Errorf("match%%=%d: passes %d, want %d", prm.MatchPercent, got, want)
		}
	}
}

// Oracle computes the expected pass and match counts directly.
func (prm Params) Oracle() (passes, matches int64) {
	nR := prm.RBytes / RecordSize
	nS := prm.SBytes / RecordSize
	bv := NewBitvec(BitvecBits)
	for i := int64(0); i < nR; i++ {
		bv.Set(BitIndex(RKey(i)))
	}
	for i := int64(0); i < nS; i++ {
		key, m := prm.SKey(i, nR)
		if bv.Get(BitIndex(key)) {
			passes++
		}
		if m {
			matches++
		}
	}
	return passes, matches
}

package reduce

import (
	"strings"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/collective"
)

func TestShapeReduceSpeedupGrows(t *testing.T) {
	// Paper Figures 15/16: the active switch tree scales as log_{N/2}(p)
	// vs the MST's log_2(p), so speedup grows with node count and is
	// substantial at 128 nodes.
	if testing.Short() {
		t.Skip("sweeps up to 128 nodes")
	}
	prm := collective.DefaultParams()
	for _, op := range []collective.Op{collective.Reduce, collective.ReduceScatter} {
		speedup := func(p int) float64 {
			rn := collective.Run(apps.Env{}, op, false, p, prm)
			ra := collective.Run(apps.Env{}, op, true, p, prm)
			return float64(rn.Latency) / float64(ra.Latency)
		}
		s16 := speedup(16)
		s64 := speedup(64)
		s128 := speedup(128)
		if !(s64 > s16) || !(s128 > s16) {
			t.Errorf("%s: speedup not growing: s16=%.2f s64=%.2f s128=%.2f", op, s16, s64, s128)
		}
		if s128 < 2.0 {
			t.Errorf("%s: speedup at 128 nodes = %.2f, want well above 2", op, s128)
		}
	}
}

func TestActiveBeatsLowerBoundAtScale(t *testing.T) {
	// The paper's point: the active reduction beats ceil(log2 p)(a+l), the
	// host-side lower bound. Approximate a+l by the measured p=2 normal
	// latency (one round) and check at p=64.
	prm := collective.DefaultParams()
	oneRound := collective.Run(apps.Env{}, collective.Reduce, false, 2, prm).Latency
	bound := 6 * oneRound // ceil(log2 64) = 6 rounds
	got := collective.Run(apps.Env{}, collective.Reduce, true, 64, prm).Latency
	if got >= bound {
		t.Errorf("active latency %v does not beat MST lower bound %v", got, bound)
	}
}

func TestSweepSeries(t *testing.T) {
	for _, op := range []collective.Op{collective.Reduce, collective.ReduceScatter, collective.Allreduce} {
		res := Sweep(apps.Env{Parallel: 2}, op, []int{2, 8, 32}, collective.DefaultParams())
		if len(res.Series) != 3 {
			t.Fatalf("%s: series = %d, want 3 (normal, active, speedup)", op, len(res.Series))
		}
		for _, s := range res.Series[:2] {
			if len(s.X) != 3 {
				t.Fatalf("%s: series %q has %d points", op, s.Name, len(s.X))
			}
			for _, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s: series %q has non-positive latency", op, s.Name)
				}
			}
		}
		for _, n := range res.Notes {
			if strings.Contains(n, "INCORRECT") {
				t.Fatalf("%s: sweep recorded incorrect results: %s", op, n)
			}
		}
	}
}

func TestReduceToAll(t *testing.T) {
	// The paper: "the results for Reduce-to-all are similar to those for
	// Reduce-to-one". Reduce-to-all is the allreduce, whose multicast
	// fan-out keeps the active latency within ~2x of reduce-to-one.
	prm := collective.DefaultParams()
	one := collective.Run(apps.Env{}, collective.Reduce, true, 16, prm)
	all := collective.Run(apps.Env{}, collective.Allreduce, true, 16, prm)
	if !one.Correct || !all.Correct {
		t.Fatalf("reduce-to-one ok=%v, reduce-to-all ok=%v", one.Correct, all.Correct)
	}
	if all.Latency > 2*one.Latency {
		t.Errorf("reduce-to-all (%v) not similar to reduce-to-one (%v)", all.Latency, one.Latency)
	}
}

func TestPipelinedReductions(t *testing.T) {
	// Back-to-back reductions overlap across tree levels — "the switch can
	// overlap the switch CPU execution with its duties as a normal switch"
	// — so the amortized per-round time of 16 rounds must beat the
	// isolated latency, and every round's result must be exact.
	prm := collective.DefaultParams()
	const p = 32
	isolated := collective.Run(apps.Env{}, collective.Reduce, true, p, prm).Latency
	res := collective.RunPipelined(apps.Env{}, p, 16, prm)
	if !res.Correct {
		t.Fatal("pipelined rounds produced wrong results")
	}
	if res.PerRound >= isolated {
		t.Fatalf("pipelining gained nothing: per-round %v vs isolated %v", res.PerRound, isolated)
	}
	prm.Operator = collective.Max
	if !collective.RunPipelined(apps.Env{}, p, 4, prm).Correct {
		t.Fatal("pipelined max rounds produced wrong results")
	}
}

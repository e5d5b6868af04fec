package exp

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"activesan/internal/apps/collsweep"
	"activesan/internal/collective"
	"activesan/internal/stats"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	// The evaluation section has two tables and the figure pairs 3/4, 5/6,
	// 7/8, 9/10, 11/12, 13/14 plus 15, 16 and 17; twolevel, scalesweep,
	// latsweep, hdlsweep, faultsweep and collsweep are this repo's
	// extensions.
	want := []string{"table1", "fig3", "fig5", "fig7", "fig9", "fig11", "fig13",
		"table2", "fig15", "fig16", "fig17", "twolevel", "scalesweep",
		"latsweep", "hdlsweep", "faultsweep", "collsweep"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want %v", got, want)
		}
	}
}

func TestEveryEntryHasRunner(t *testing.T) {
	for _, e := range Registry {
		if e.run == nil {
			t.Errorf("%s: registry entry has no run function", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Fatal("fig9 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}

func TestEveryExperimentRunsScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	// A heavily scaled pass of the full registry: every experiment must
	// produce a non-empty result without panicking.
	for _, e := range Registry {
		res := e.Run(64)
		if res.ID == "" {
			t.Errorf("%s: empty result id", e.ID)
		}
		if len(res.Runs) == 0 && len(res.Series) == 0 && len(res.Notes) == 0 {
			t.Errorf("%s: result carries no data", e.ID)
		}
		if out := res.Format(); out == "" {
			t.Errorf("%s: empty formatting", e.ID)
		}
	}
}

func TestTable1MatchesPaperSizes(t *testing.T) {
	res := runTable1(DefaultConfig(1))
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"2202640", "16M x 128M", "1146880", "Big Red Bear", "16M records", "512 B"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("table1 missing %q:\n%s", want, joined)
		}
	}
}

func TestShapesProducedForFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig9")
	}
	e, _ := ByID("fig9")
	res := e.Run(1)
	shapes := Shapes(res)
	if len(shapes) == 0 {
		t.Fatal("no shape summary for fig9")
	}
	if !strings.Contains(shapes[0], "paper") {
		t.Fatalf("shape line lacks paper reference: %q", shapes[0])
	}
}

func TestScaleClampsToFloors(t *testing.T) {
	// Absurd scales must clamp to each experiment's minimum workload, not
	// produce empty runs.
	if testing.Short() {
		t.Skip("runs scaled experiments")
	}
	for _, id := range []string{"fig3", "fig7", "fig13"} {
		e, _ := ByID(id)
		res := e.Run(1 << 30)
		if len(res.Runs) == 0 {
			t.Errorf("%s at huge scale produced no runs", id)
		}
		for _, r := range res.Runs {
			if r.Time <= 0 {
				t.Errorf("%s: run %s has no duration", id, r.Config)
			}
		}
	}
}

// RunAll is a loop: one experiment at a time, in registry order, each
// running its own simulations at the config's full width.
func TestRunAllRunsExperimentsInOrder(t *testing.T) {
	saved := Registry
	defer func() { Registry = saved }()
	var live atomic.Int32
	var order []string
	Registry = make([]Experiment, 12)
	for i := range Registry {
		id := saved[i].ID
		Registry[i] = Experiment{ID: id, run: func(cfg Config) *stats.Result {
			if n := live.Add(1); n != 1 {
				t.Errorf("%s started with %d experiments live, want 1", id, n)
			}
			if w := cfg.Env.Width(); w != 3 {
				t.Errorf("%s runs %d simulations at once, want the config's 3", id, w)
			}
			order = append(order, id)
			time.Sleep(time.Millisecond)
			live.Add(-1)
			return &stats.Result{ID: id}
		}}
	}
	cfg := DefaultConfig(64)
	cfg.Env.Parallel = 3
	for i, res := range RunAll(cfg) {
		if res.ID != Registry[i].ID || order[i] != Registry[i].ID {
			t.Fatalf("slot %d holds %s, run %d was %s, want %s", i, res.ID, i, order[i], Registry[i].ID)
		}
	}
}

// collsweep names the op it swept: under gather its passive curve is the
// binomial tree the hosts run, not recursive doubling, and its shape
// lines speak of gather.
func TestCollsweepNamesSweptOp(t *testing.T) {
	prm := collsweep.DefaultParams()
	prm.Op, prm.HostCounts, prm.Budgets = collective.Gather, []int{4, 8}, []int{8}
	res := collsweep.RunAll(prm)
	if got, want := res.Series[0].Name, "passive (binomial tree)"; got != want {
		t.Errorf("passive series %q, want %q", got, want)
	}
	shapes := Shapes(res)
	if len(shapes) < 2 {
		t.Fatalf("shapes %q, want the host I/O and speedup lines", shapes)
	}
	for _, line := range shapes[:2] {
		if !strings.Contains(line, "gather") || strings.Contains(line, "allreduce") {
			t.Errorf("shape line %q does not name gather alone", line)
		}
	}
	if !strings.HasSuffix(shapes[1], "over binomial tree") {
		t.Errorf("speedup shape %q is not over the binomial tree", shapes[1])
	}
}

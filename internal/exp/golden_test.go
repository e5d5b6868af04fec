package exp_test

// The golden-result suite pins the simulator's deterministic output: every
// registry entry is re-run (in parallel, through exp.RunAll) at a fixed
// small scale and compared byte-for-byte against testdata/golden/<id>.json,
// which holds the same JSON the `activesim -json` flag writes. A mismatch
// is a calibration regression unless the change was intentional — then
// regenerate with
//
//	go test ./internal/exp -run TestGolden -update
//
// and review the diff of testdata/golden in the commit.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"activesan"
	"activesan/internal/exp"
	"activesan/internal/report"
	"activesan/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current simulator output")

// goldenScale fixes the golden problem size: heavily scaled so the whole
// registry runs in seconds, with every workload clamped to its floor and
// every shape still present.
const goldenScale = 64

// goldenWorkers exercises the parallel harness whenever the goldens are
// checked or regenerated.
const goldenWorkers = 4

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// marshalResult encodes one result exactly as `activesim -json` would.
func marshalResult(t *testing.T, res *stats.Result) []byte {
	t.Helper()
	data, err := activesan.ResultJSON([]*stats.Result{res})
	if err != nil {
		t.Fatalf("marshal %s: %v", res.ID, err)
	}
	return append(data, '\n')
}

// runAll runs the registry at goldenScale over the given number of
// workers.
func runAll(workers int) []*stats.Result {
	cfg := exp.DefaultConfig(goldenScale)
	cfg.Env.Parallel = workers
	return exp.RunAll(cfg)
}

// unmarshalResults decodes a golden file's result set.
func unmarshalResults(data []byte) ([]*stats.Result, error) {
	var f struct {
		Results []*stats.Result `json:"results"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return f.Results, nil
}

func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	results := runAll(goldenWorkers)
	for i, e := range exp.Registry {
		got := marshalResult(t, results[i])
		path := goldenPath(e.ID)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (%v); generate with `go test ./internal/exp -run TestGolden -update`", e.ID, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output diverged from %s — calibration regression?\n%s\n(if intentional, regenerate with -update and commit the diff)",
				e.ID, path, goldenDelta(want, got))
		}
	}
}

// goldenDelta renders a mismatch as the sandiff-style per-config delta
// table, far more readable than a raw JSON diff.
func goldenDelta(before, after []byte) string {
	rb, errB := unmarshalResults(before)
	ra, errA := unmarshalResults(after)
	if errB != nil || errA != nil {
		return "(golden not parseable as a result file; compare the JSON directly)"
	}
	return report.Compare(rb, ra)
}

func TestGoldenFilesCoverRegistry(t *testing.T) {
	// Every registry entry has a golden, and no stale golden outlives its
	// experiment.
	want := make(map[string]bool, len(exp.Registry))
	for _, e := range exp.Registry {
		want[e.ID] = true
		if _, err := os.Stat(goldenPath(e.ID)); err != nil {
			t.Errorf("%s: no golden file: %v", e.ID, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		id := ent.Name()[:len(ent.Name())-len(".json")]
		if !want[id] {
			t.Errorf("stale golden %s: no experiment %q in the registry", ent.Name(), id)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice")
	}
	// Two passes at the same scale — one through the parallel harness, one
	// sequential — must agree byte-for-byte, which simultaneously proves
	// per-experiment determinism and the independence of concurrent
	// engines. The registry includes the multi-switch-CPU MD5 case (fig17)
	// and the tree-topology reductions (fig15/fig16).
	first := runAll(goldenWorkers)
	second := runAll(1)
	for i, e := range exp.Registry {
		a := marshalResult(t, first[i])
		b := marshalResult(t, second[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s: parallel and sequential runs diverge — nondeterministic simulation", e.ID)
		}
	}
}

func TestKeyExperimentsDeterministicQuick(t *testing.T) {
	// A fast always-on determinism pin for the two topologies most at risk
	// from concurrency bugs: fig17 (multiple switch CPUs sharing one
	// switch) and fig15 (a switch tree). Runs each twice back to back.
	for _, id := range []string{"fig15", "fig17"} {
		e, ok := exp.ByID(id)
		if !ok {
			t.Fatalf("%s missing from registry", id)
		}
		a := marshalResult(t, e.Run(256))
		b := marshalResult(t, e.Run(256))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two identical runs produced different JSON", id)
		}
	}
}

func TestRunAllOrderingAndWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the registry at several worker counts")
	}
	// Whatever the worker count — including more workers than experiments
	// and the GOMAXPROCS default (workers < 1) — results come back in
	// registry order with matching IDs.
	for _, workers := range []int{0, len(exp.Registry) + 5} {
		results := runAll(workers)
		if len(results) != len(exp.Registry) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(exp.Registry))
		}
		for i, e := range exp.Registry {
			if results[i] == nil || results[i].ID != e.ID {
				t.Errorf("workers=%d: slot %d holds %v, want %s", workers, i, results[i], e.ID)
			}
		}
	}
}

package cliflags

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activesan/internal/apps"
	"activesan/internal/apps/mpeg"
	"activesan/internal/cluster"
)

func TestSetupRejectsSeedWithoutPlan(t *testing.T) {
	c := &Common{FaultSeed: 42}
	_, cleanup, err := c.Setup()
	if err == nil || !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("err = %v, want a -fault-seed/-faults complaint", err)
	}
	cleanup()
}

func TestSetupLoadsFaultPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 3, "links": [{"drop": 0.01}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Common{Faults: path, FaultSeed: 9}
	cfg, cleanup, err := c.Setup()
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	defer cleanup()
	plan, seed := cfg.Env.Faults, cfg.Env.FaultSeed
	if plan == nil || plan.Seed != 3 || seed != 9 {
		t.Fatalf("config plan = %+v seed %d, want seed 3 with override 9", plan, seed)
	}
}

func TestSetupRejectsInvalidPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte(`{"links": [{"drop": 1.5}]}`), 0o644)
	c := &Common{Faults: path}
	_, cleanup, err := c.Setup()
	if err == nil || !strings.Contains(err.Error(), "drop=1.5") {
		t.Fatalf("err = %v, want the out-of-range probability named", err)
	}
	cleanup()

	c = &Common{Faults: filepath.Join(dir, "absent.json")}
	_, cleanup, err = c.Setup()
	if err == nil {
		t.Fatal("missing plan file accepted")
	}
	cleanup()
}

func TestSetupInstallsTopologyDefault(t *testing.T) {
	cases := []struct {
		flag  string
		parts int
		want  cluster.Topo
	}{
		{"", 1, cluster.Topo{Parts: 1}},
		{"tree", 1, cluster.Topo{Parts: 1}},
		{"fattree", 0, cluster.Topo{FatTree: true}},
		{"fattree:8", 2, cluster.Topo{FatTree: true, K: 8, Parts: 2}},
	}
	for _, tc := range cases {
		c := &Common{Topology: tc.flag, Partitions: tc.parts}
		cfg, cleanup, err := c.Setup()
		if err != nil {
			t.Fatalf("Setup(-topology=%q): %v", tc.flag, err)
		}
		cleanup()
		if got := cfg.Env.Topology; got != tc.want {
			t.Errorf("-topology=%q -partitions=%d configured %+v, want %+v", tc.flag, tc.parts, got, tc.want)
		}
	}
}

func TestSetupRejectsBadTopology(t *testing.T) {
	for _, v := range []string{"mesh", "fattree:7", "fattree:0", "fattree:x"} {
		c := &Common{Topology: v}
		_, cleanup, err := c.Setup()
		cleanup()
		if err == nil || !strings.Contains(err.Error(), "-topology") {
			t.Errorf("-topology=%q: err = %v, want a -topology complaint", v, err)
		}
	}
}

func TestSetupCompilesHandlerSrc(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fold.hdl")
	src := "handler fold {\n\tvar acc\n\ton word x {\n\t\tacc = acc ^ x\n\t}\n\tend {\n\t\temit acc\n\t}\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Common{HandlerSrc: path}
	cfg, cleanup, err := c.Setup()
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	defer cleanup()
	if x := cfg.Handler; x == nil || x.AST.Name != "fold" {
		t.Fatalf("Handler = %v, want the compiled fold handler", x)
	}
}

func TestSetupRejectsBadHandlerSrc(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.hdl")
	os.WriteFile(bad, []byte("handler broken {\n\ton word x { y = 1 }\n}\n"), 0o644)
	for _, path := range []string{bad, filepath.Join(dir, "absent.hdl")} {
		c := &Common{HandlerSrc: path}
		_, cleanup, err := c.Setup()
		cleanup()
		if err == nil || !strings.HasPrefix(err.Error(), "-handler-src:") {
			t.Errorf("HandlerSrc=%q: err = %v, want a -handler-src-prefixed error", path, err)
		}
	}
}

func TestEnsureParent(t *testing.T) {
	dir := t.TempDir()
	nested := filepath.Join(dir, "a", "b", "out.json")
	if err := EnsureParent(nested); err != nil {
		t.Fatalf("EnsureParent: %v", err)
	}
	if st, err := os.Stat(filepath.Dir(nested)); err != nil || !st.IsDir() {
		t.Fatalf("parent not created: %v", err)
	}
	// A bare filename needs no directory and must not error.
	if err := EnsureParent("out.json"); err != nil {
		t.Fatalf("EnsureParent on bare name: %v", err)
	}
}

func TestCleanupFlushesOnCrash(t *testing.T) {
	// The satellite regression: a fault plan that crashes mid-run (here a
	// handler crash, followed by a strict-routes-style panic out of the
	// simulation body) must still leave a complete -trace-out document and a
	// flight-recorder dump on disk — never a truncated fragment.
	dir := t.TempDir()
	planPath := filepath.Join(dir, "crash.json")
	plan := `{"events": [{"at_ns": 50000, "kind": "handler_crash", "switch": 0}]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Common{
		TraceOut:   filepath.Join(dir, "trace.json"),
		TraceLimit: 100000,
		Faults:     planPath,
		Telemetry:  true,
		FlightRec:  filepath.Join(dir, "flight.txt"),
	}
	cfg, cleanup, err := c.Setup()
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if c.FR == nil {
		t.Fatal("Setup left FR nil with -flight-recorder set")
	}

	prm := mpeg.DefaultParams()
	prm.FileSize = 256 * 1024
	prm.Env = cfg.Env
	code := c.RunProtected(func() int {
		run := mpeg.Run(apps.Active, prm)
		if run.Extra["fallback"] != true {
			t.Errorf("crash plan did not force the fallback: Extra=%v", run.Extra)
		}
		panic("no route for packet dst=7 (-strict-routes)")
	})
	cleanup() // main defers this; a panic in the body must not skip it
	if code != 1 {
		t.Fatalf("RunProtected = %d after a panic, want 1", code)
	}

	// Flight dump written, holding both the fault event and the panic trigger.
	dump, err := os.ReadFile(c.FlightRec)
	if err != nil {
		t.Fatalf("no flight-recorder dump: %v", err)
	}
	for _, want := range []string{"handler_crash", "panic: no route"} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}

	// The trace file is a complete, loadable JSON document with events.
	raw, err := os.ReadFile(c.TraceOut)
	if err != nil {
		t.Fatalf("no trace file: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("crashed run left a truncated trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace document holds no events")
	}
}

func TestSetupMetricsOutCreatesParent(t *testing.T) {
	dir := t.TempDir()
	c := &Common{MetricsOut: filepath.Join(dir, "sub", "metrics.json")}
	_, cleanup, err := c.Setup()
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	defer cleanup()
	if st, err := os.Stat(filepath.Join(dir, "sub")); err != nil || !st.IsDir() {
		t.Fatalf("metrics parent not created: %v", err)
	}
}

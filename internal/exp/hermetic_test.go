package exp_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"activesan/internal/collective"
	"activesan/internal/exp"
	"activesan/internal/fault"
	"activesan/internal/hdl"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// hermeticScale shrinks every workload to its floor.
const hermeticScale = 1 << 20

// TestRunsAreHermetic runs experiments under different configs side by side
// in one process: each result must equal the same config run alone, and
// the two configs of each pair must differ — a setting that leaked between
// concurrent runs would make a pair agree or a result drift. Kept out of
// -short's skip list so the race detector sees the concurrent runs.
func TestRunsAreHermetic(t *testing.T) {
	fold, err := hdl.Compile("handler fold {\n\tvar acc\n\ton word x {\n\t\tacc = acc ^ x\n\t}\n\tend {\n\t\temit acc\n\t}\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	base := exp.DefaultConfig(hermeticScale)
	telemetry := base
	telemetry.Env.Telemetry = true
	barrier := base
	barrier.Collective = collective.Barrier
	barrier.Env.Topology.Parts = 2
	extra := base
	extra.Handler = fold

	pairs := []struct {
		id   string
		a, b exp.Config
	}{
		{"fig3", base, telemetry},
		{"collsweep", base, barrier},
		{"hdlsweep", base, extra},
	}
	type run struct {
		id  string
		cfg exp.Config
	}
	var runs []run
	for _, p := range pairs {
		runs = append(runs, run{p.id, p.a}, run{p.id, p.b})
	}
	exec := func(r run) []byte {
		e, ok := exp.ByID(r.id)
		if !ok {
			t.Fatalf("%s missing from the registry", r.id)
		}
		return marshalResult(t, e.RunConfig(r.cfg))
	}

	together := make([][]byte, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = exec(r)
		}()
	}
	wg.Wait()

	for i, r := range runs {
		if alone := exec(r); !bytes.Equal(together[i], alone) {
			t.Errorf("%s (run %d): result under concurrent runs differs from the same config run alone", r.id, i)
		}
	}
	for i, p := range pairs {
		if bytes.Equal(together[2*i], together[2*i+1]) {
			t.Errorf("%s: both configs gave the same result; a setting did not reach the run", p.id)
		}
	}
}

// traceDigest is a trace sink chaining every event into an order-sensitive
// hash, and counting them.
type traceDigest struct {
	mu     sync.Mutex
	events int
	sum    uint64
}

func (d *traceDigest) sink(ev sim.TraceEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d|%s|%s|%s|%s", d.sum, ev.At, ev.Cat, ev.Name, ev.Comp, ev.Detail)
	d.events++
	d.sum = h.Sum64()
}

// TestTracedRunAllIsSequential: a traced registry run logs the same event
// sequence at any worker count, because a config with a trace sink runs one
// simulation at a time.
func TestTracedRunAllIsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("traces the whole registry twice")
	}
	var digests [2]traceDigest
	var results [2][]*stats.Result
	for i, workers := range []int{1, 4} {
		cfg := exp.DefaultConfig(hermeticScale)
		cfg.Env.Trace = digests[i].sink
		cfg.Env.Parallel = workers
		results[i] = exp.RunAll(cfg)
	}
	if digests[0].events == 0 {
		t.Fatal("the traced run logged no events")
	}
	if digests[0].events != digests[1].events || digests[0].sum != digests[1].sum {
		t.Fatalf("4 workers logged %d events (digest %x), 1 worker %d (digest %x)",
			digests[1].events, digests[1].sum, digests[0].events, digests[0].sum)
	}
	for i, e := range exp.Registry {
		if !bytes.Equal(marshalResult(t, results[0][i]), marshalResult(t, results[1][i])) {
			t.Errorf("%s: traced results differ between 1 and 4 workers", e.ID)
		}
	}
}

// fannedOut lists the experiments whose independent simulations run through
// apps.Env.Runs, -parallel at a time.
var fannedOut = []string{"fig3", "fig5", "fig7", "fig9", "fig11", "fig13",
	"fig17", "twolevel", "hdlsweep", "faultsweep"}

// TestFanOutMatchesSequential: an experiment's simulations give the same
// bytes run 4 at a time as one at a time, also with a fault plan armed, and
// a traced experiment logs the same event sequence at either width,
// because a config with a trace sink runs one simulation at a time. Kept
// out of -short's skip list so the race detector sees concurrent runs
// share their generated inputs and plan read-only.
func TestFanOutMatchesSequential(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Links: []fault.LinkRule{{Drop: 0.005}}, Disks: []fault.DiskRule{{Fail: 0.1}}}
	type point struct {
		id     string
		faults *fault.Plan
	}
	points := []point{{"fig3", plan}}
	for _, id := range fannedOut {
		points = append(points, point{id, nil})
	}
	for _, pt := range points {
		e, ok := exp.ByID(pt.id)
		if !ok {
			t.Fatalf("%s missing from the registry", pt.id)
		}
		var out [2][]byte
		for i, width := range []int{1, 4} {
			cfg := exp.DefaultConfig(hermeticScale)
			cfg.Env.Faults = pt.faults
			cfg.Env.Parallel = width
			out[i] = marshalResult(t, e.RunConfig(cfg))
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s (faults %v): 4 runs at a time differ from one at a time", pt.id, pt.faults != nil)
		}
	}

	e, _ := exp.ByID("fig13")
	var digests [2]traceDigest
	for i, width := range []int{1, 4} {
		cfg := exp.DefaultConfig(hermeticScale)
		cfg.Env.Trace = digests[i].sink
		cfg.Env.Parallel = width
		e.RunConfig(cfg)
	}
	if digests[0].events == 0 {
		t.Fatal("the traced run logged no events")
	}
	if digests[0].events != digests[1].events || digests[0].sum != digests[1].sum {
		t.Fatalf("traced fig13 at width 4 logged %d events (digest %x), at width 1 %d (digest %x)",
			digests[1].events, digests[1].sum, digests[0].events, digests[0].sum)
	}
}

package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModule(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"activesan/internal/sim.(*Proc).block", "/src/internal/sim/proc.go", "sim"},
		{"activesan/internal/sim.(*Group).computeHorizons", "/src/internal/sim/group.go", "group"},
		{"activesan/internal/apps/psort.Run.func1", "/src/internal/apps/psort/psort.go", "apps"},
		{"activesan/internal/cache.(*Cache).Access", "/src/internal/cache/cache.go", "cache"},
		{"activesan/internal/metrics.Collect", "/src/internal/metrics/collect.go", "other"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "/go/src/internal/runtime/maps/map.go", "runtime"},
		{"sort.Sort", "/go/src/sort/sort.go", "other"},
		{"main.spin", "/src/perfbench/profile_test.go", "other"},
	}
	for _, c := range cases {
		if got := module(c.fn, c.file); got != c.want {
			t.Errorf("module(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

var sink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestAddProfileAttributesLeafFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	ns := map[string]int64{}
	if err := addProfile(ns, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	// The spin loop is in package main, which counts as "other"; most of
	// the profiled time must land there.
	if total == 0 || ns["other"]*2 < total {
		t.Fatalf("profile attribution %v: want most of the time in other", ns)
	}
}

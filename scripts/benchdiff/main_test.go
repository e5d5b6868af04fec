package main

import (
	"strings"
	"testing"
)

// TestParseRecordsBytes checks that a -benchmem row yields ns/op,
// allocs/op and B/op, with custom units kept apart and the GOMAXPROCS
// suffix stripped from the name.
func TestParseRecordsBytes(t *testing.T) {
	in := `goos: linux
BenchmarkFatTreeBuild1024-2   	      10	  52331859 ns/op	53954282 B/op	   96746 allocs/op
BenchmarkExchange256Serial-2 	       3	 395237796 ns/op	 331589203 run-ns/op	 1024 B/op	  387280 allocs/op
PASS
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]entry{
		"BenchmarkFatTreeBuild1024":  {NsPerOp: 52331859, AllocsPerOp: 96746, BytesPerOp: 53954282},
		"BenchmarkExchange256Serial": {NsPerOp: 395237796, AllocsPerOp: 387280, BytesPerOp: 1024},
	}
	for name, w := range want {
		g := got[name]
		if g.NsPerOp != w.NsPerOp || g.AllocsPerOp != w.AllocsPerOp || g.BytesPerOp != w.BytesPerOp {
			t.Errorf("%s: parsed %+v, want %+v", name, g, w)
		}
	}
	if v := got["BenchmarkExchange256Serial"].Metrics["run-ns/op"]; v != 331589203 {
		t.Errorf("run-ns/op = %v, want 331589203", v)
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d", len(got), len(want))
	}
}

// TestAllocGateTiers pins the gate that counts and bytes share: exact while
// the baseline makes at most 64 allocations per op, 1.5x head-room above.
func TestAllocGateTiers(t *testing.T) {
	cases := []struct {
		baseAllocs, base, cur int64
		want                  bool
	}{
		{0, 0, 0, false},
		{0, 0, 1, true}, // a zero-alloc path that starts allocating
		{64, 4096, 4096, false},
		{64, 4096, 4097, true},
		{65, 1000, 1500, false},
		{65, 1000, 1501, true},
		{96746, 53954282, 157306915, true}, // fabric tags at their old size
	}
	for _, c := range cases {
		if got := allocRegressed(c.baseAllocs, c.base, c.cur); got != c.want {
			t.Errorf("allocRegressed(%d, %d, %d) = %v, want %v", c.baseAllocs, c.base, c.cur, got, c.want)
		}
	}
}

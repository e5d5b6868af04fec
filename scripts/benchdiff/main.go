// Command benchdiff compares `go test -bench` output against the checked-in
// engine baseline (BENCH_engine.json at the repo root), benchstat-style.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/ ./internal/cache/ ./internal/collective/ | \
//	    go run ./scripts/benchdiff -baseline BENCH_engine.json
//
//	go run ./scripts/benchdiff -baseline BENCH_engine.json -update bench.txt
//
// Result lines are tokenized as (value, unit) pairs, so custom units
// reported via b.ReportMetric — the partition benchmarks' run-ns/op and
// measured-speedup-x — are recorded in the baseline and shown in the report
// rather than confusing the allocs column.
//
// Two regression gates, chosen per context:
//
//   - allocs/op and B/op are always gated, with the same tiers. At micro
//     scale (baseline <= 64 allocs/op) the comparison is exact: the
//     engine's pooled hot paths promise zero steady-state allocations, and
//     that promise is deterministic, so CI can enforce it even on noisy
//     shared runners. Macro benchmarks (whole collectives, millions of
//     allocations) get 1.5x head-room on both — their counts and bytes
//     scale with workload shape, not with a pooling promise. Gating bytes
//     catches memory that grows without more allocations, such as a fabric
//     build's cache tag arrays widening.
//   - ns/op is gated only when -threshold is positive (e.g. 0.25 allows a
//     25% slowdown). Wall-clock on CI runners is noisy, so CI passes
//     -allocs-only and the timing table is informational there; run the
//     timing gate locally before updating the baseline.
//
// Exit status is 1 when any gate fails, so the CI job fails on drift.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type baseline struct {
	Note       string           `json:"note"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// parse tokenizes `go test -bench -benchmem` result rows: the benchmark
// name (GOMAXPROCS suffix stripped), the iteration count, then (value,
// unit) pairs in any order. Unknown units land in the entry's Metrics map.
func parse(r io.Reader) (map[string]entry, error) {
	got := make(map[string]entry)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result row (e.g. a test log line)
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var e entry
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value in %q: %v", sc.Text(), err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			case "B/op":
				e.BytesPerOp = int64(v)
			default:
				if e.Metrics == nil {
					e.Metrics = make(map[string]float64)
				}
				e.Metrics[unit] = v
			}
		}
		got[name] = e
	}
	return got, sc.Err()
}

// allocRegressed applies the tiered allocation gate to a count or a byte
// total: exact at micro scale (the baseline's allocs/op at most 64), 1.5x
// head-room for macro benchmarks whose allocations track workload size.
func allocRegressed(baseAllocs, base, cur int64) bool {
	if baseAllocs <= 64 {
		return cur > base
	}
	return float64(cur) > float64(base)*1.5
}

func main() {
	basePath := flag.String("baseline", "BENCH_engine.json", "baseline file to compare against")
	threshold := flag.Float64("threshold", 0, "fail if ns/op regresses by more than this fraction (0 disables the timing gate)")
	allocsOnly := flag.Bool("allocs-only", false, "gate only on allocs/op and B/op (timing table is informational)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	got, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in input")
		os.Exit(1)
	}

	if *update {
		b := baseline{
			Note:       "Engine microbenchmark baseline; regenerate with: go test -run '^$' -bench . -benchmem ./internal/sim/ ./internal/cache/ ./internal/collective/ ./internal/cluster/ | go run ./scripts/benchdiff -update",
			Benchmarks: got,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *basePath, len(got))
		return
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad baseline %s: %v\n", *basePath, err)
		os.Exit(1)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Printf("%-28s %12s %12s %8s %14s %24s\n", "benchmark", "base ns/op", "ns/op", "delta", "allocs (b→c)", "B/op (b→c)")
	for _, name := range names {
		cur := got[name]
		b, known := base.Benchmarks[name]
		if !known {
			fmt.Printf("%-28s %12s %12.1f %8s %11s %-3d %11s %d\n", name, "-", cur.NsPerOp, "new", "-", cur.AllocsPerOp, "-", cur.BytesPerOp)
			printMetrics(cur.Metrics, nil)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (cur.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		mark := ""
		if allocRegressed(b.AllocsPerOp, b.AllocsPerOp, cur.AllocsPerOp) {
			mark = "  ALLOC REGRESSION"
			failed = true
		}
		if allocRegressed(b.AllocsPerOp, b.BytesPerOp, cur.BytesPerOp) {
			mark += "  BYTES REGRESSION"
			failed = true
		}
		if !*allocsOnly && *threshold > 0 && delta > *threshold {
			mark += "  TIME REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s %12.1f %12.1f %+7.1f%% %8d → %-3d %11d → %-9d%s\n",
			name, b.NsPerOp, cur.NsPerOp, delta*100, b.AllocsPerOp, cur.AllocsPerOp, b.BytesPerOp, cur.BytesPerOp, mark)
		printMetrics(cur.Metrics, b.Metrics)
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			fmt.Printf("%-28s missing from input (baseline has it)\n", name)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: regression against", *basePath)
		os.Exit(1)
	}
}

// printMetrics shows a benchmark's custom units (informational, never
// gated) with the baseline value for context when one exists.
func printMetrics(cur, base map[string]float64) {
	units := make([]string, 0, len(cur))
	for u := range cur {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		if b, ok := base[u]; ok {
			fmt.Printf("%-28s %12.1f %12.1f   [%s]\n", "", b, cur[u], u)
		} else {
			fmt.Printf("%-28s %12s %12.1f   [%s]\n", "", "-", cur[u], u)
		}
	}
}

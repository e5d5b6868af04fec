// Benchmarks: one per paper artifact. Each benchmark regenerates its table
// or figure on the simulator and reports the headline shape numbers as
// custom metrics (speedups and ratios named after the paper's claims), so
// `go test -bench=.` reproduces the evaluation end to end.
//
// Scales are chosen so a full -bench=. run finishes in minutes; run the
// paper's exact problem sizes with `go run ./cmd/activesim -run all -scale 1`.
package activesan_test

import (
	"testing"

	"activesan"
)

// runExp executes an experiment once per iteration and returns the last
// result for metric reporting.
func runExp(b *testing.B, id string, scale int64) *activesan.Result {
	b.Helper()
	var res *activesan.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = activesan.RunExperiment(id, activesan.DefaultConfig(scale))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func report(b *testing.B, res *activesan.Result, metric string, v float64) {
	b.Helper()
	b.ReportMetric(v, metric)
	_ = res
}

func BenchmarkTable1(b *testing.B) {
	res := runExp(b, "table1", 1)
	report(b, res, "workloads", float64(len(res.Notes)))
}

func BenchmarkFig3MPEG(b *testing.B) {
	res := runExp(b, "fig3", 1)
	report(b, res, "speedup_active/paper=1.23", res.Speedup("active"))
	report(b, res, "speedup_active+pref/paper=1.36", res.Speedup("active+pref"))
}

func BenchmarkFig4MPEGBreakdown(b *testing.B) {
	res := runExp(b, "fig3", 2)
	ap, _ := res.Run("active+pref")
	report(b, res, "switch_util/paper=high", ap.SwitchUtil())
}

func BenchmarkFig5HashJoin(b *testing.B) {
	res := runExp(b, "fig5", 16)
	report(b, res, "speedup_active/paper=1.10", res.Speedup("active"))
	a, _ := res.Run("active")
	report(b, res, "traffic_ratio", float64(a.Traffic)/float64(res.Baseline().Traffic))
}

func BenchmarkFig6HashJoinBreakdown(b *testing.B) {
	res := runExp(b, "fig5", 16)
	np, _ := res.Run("normal+pref")
	ap, _ := res.Run("active+pref")
	report(b, res, "stall_share_normal+pref/paper=0.276", float64(np.HostStall)/float64(np.Time))
	report(b, res, "stall_share_active+pref/paper=0.161", float64(ap.HostStall)/float64(ap.Time))
}

func BenchmarkFig7Select(b *testing.B) {
	res := runExp(b, "fig7", 16)
	a, _ := res.Run("active")
	report(b, res, "traffic_ratio/paper=0.25", float64(a.Traffic)/float64(res.Baseline().Traffic))
}

func BenchmarkFig8SelectBreakdown(b *testing.B) {
	res := runExp(b, "fig7", 16)
	a, _ := res.Run("active")
	np, _ := res.Run("normal+pref")
	report(b, res, "util_ratio/paper=21", (res.Baseline().HostUtil()+np.HostUtil())/(2*a.HostUtil()))
}

func BenchmarkFig9Grep(b *testing.B) {
	res := runExp(b, "fig9", 1)
	report(b, res, "speedup_active/paper=1.14", res.Speedup("active"))
}

func BenchmarkFig10GrepBreakdown(b *testing.B) {
	res := runExp(b, "fig9", 1)
	a, _ := res.Run("active")
	report(b, res, "host_util_active/paper~0", a.HostUtil())
}

func BenchmarkFig11Tar(b *testing.B) {
	res := runExp(b, "fig11", 2)
	a, _ := res.Run("active")
	report(b, res, "host_traffic_bytes/paper=headers", float64(a.Traffic))
}

func BenchmarkFig12TarBreakdown(b *testing.B) {
	res := runExp(b, "fig11", 2)
	a, _ := res.Run("active")
	report(b, res, "host_util_active/paper~0", a.HostUtil())
}

func BenchmarkFig13Sort(b *testing.B) {
	res := runExp(b, "fig13", 64)
	a, _ := res.Run("active")
	report(b, res, "traffic_ratio/paper=0.40", float64(a.Traffic)/float64(res.Baseline().Traffic))
}

func BenchmarkFig14SortBreakdown(b *testing.B) {
	res := runExp(b, "fig13", 64)
	a, _ := res.Run("active")
	report(b, res, "host_util_active", a.HostUtil())
	report(b, res, "host_util_normal", res.Baseline().HostUtil())
}

func BenchmarkTable2Semantics(b *testing.B) {
	res := runExp(b, "table2", 1)
	report(b, res, "notes", float64(len(res.Notes)))
}

func BenchmarkFig15ReduceToOne(b *testing.B) {
	res := runExp(b, "fig15", 1)
	for _, s := range res.Series {
		if s.Name == "speedup" {
			report(b, res, "max_speedup/paper=5.61", s.MaxY())
		}
	}
}

func BenchmarkFig16DistReduce(b *testing.B) {
	res := runExp(b, "fig16", 1)
	for _, s := range res.Series {
		if s.Name == "speedup" {
			report(b, res, "max_speedup/paper=5.92", s.MaxY())
		}
	}
}

func BenchmarkFig17MD5MultiCPU(b *testing.B) {
	res := runExp(b, "fig17", 1)
	report(b, res, "speedup_4cpu/paper=1.50", res.Speedup("active-4cpu"))
	report(b, res, "slowdown_1cpu/paper<1", res.Speedup("active-1cpu"))
}

// --- Extensions beyond the paper's figures ---

func BenchmarkExtTwoLevel(b *testing.B) {
	res := runExp(b, "twolevel", 8)
	host, _ := res.Run("host")
	two, _ := res.Run("two-level")
	report(b, res, "twolevel_traffic_ratio", float64(two.Traffic)/float64(host.Traffic))
}

// Ablation benchmarks: the design-choice studies of internal/ablation,
// exposed as testing.B entries so `go test -bench=Ablation` reports them
// alongside the paper's figures.
package activesan_test

import (
	"testing"

	"activesan/internal/ablation"
	"activesan/internal/apps"
)

func BenchmarkAblationInterference(b *testing.B) {
	var r ablation.InterferenceResult
	for i := 0; i < b.N; i++ {
		r = ablation.Interference(apps.Env{})
	}
	b.ReportMetric(100*r.Degradation(), "degradation_pct/goal=0")
	b.ReportMetric(r.Baseline/1e6, "baseline_MBps")
}

func BenchmarkAblationBufferCount(b *testing.B) {
	var pts []ablation.ThroughputPoint
	for i := 0; i < b.N; i++ {
		pts = ablation.BufferCount(apps.Env{}, []int{4, 16})
	}
	b.ReportMetric(pts[0].Bytes/1e6, "MBps_4buf")
	b.ReportMetric(pts[1].Bytes/1e6, "MBps_16buf")
}

func BenchmarkAblationValidBits(b *testing.B) {
	var fine, coarse float64
	for i := 0; i < b.N; i++ {
		f, c := ablation.ValidBitGranularity(apps.Env{})
		fine, coarse = f.Micros(), c.Micros()
	}
	b.ReportMetric(coarse-fine, "fine_bits_gain_us")
}

func BenchmarkAblationCPUClock(b *testing.B) {
	var pts []ablation.ThroughputPoint
	for i := 0; i < b.N; i++ {
		pts = ablation.CPUClock(apps.Env{}, []int{250, 1000})
	}
	b.ReportMetric(pts[1].Bytes/pts[0].Bytes, "speedup_250_to_1000MHz")
}

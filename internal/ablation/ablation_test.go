package ablation

import (
	"os"
	"path/filepath"
	"testing"

	"activesan/internal/apps"
)

func TestInterferenceDesignGoal1(t *testing.T) {
	// The paper's first design goal: active switches must not degrade
	// non-active messages. The separate data buffers and the (N+1)th
	// crossbar port mean host-to-host traffic shares nothing with handler
	// streams, so degradation must be negligible.
	r := Interference(apps.Env{})
	if r.Baseline <= 0 || r.WithActive <= 0 {
		t.Fatalf("throughputs = %v / %v", r.Baseline, r.WithActive)
	}
	if d := r.Degradation(); d > 0.02 {
		t.Fatalf("active load degrades non-active throughput by %.1f%%", 100*d)
	}
	if r.WithActiveLat > r.BaselineLat*11/10 {
		t.Fatalf("latency grew from %v to %v under active load", r.BaselineLat, r.WithActiveLat)
	}
}

func TestBufferCountFewSuffice(t *testing.T) {
	// The paper: "only a limited number of data buffers are needed" for
	// streaming handlers. Throughput with 4 buffers should already be
	// within a few percent of 32.
	pts := BufferCount(apps.Env{}, []int{4, 32})
	small, big := pts[0].Bytes, pts[1].Bytes
	if small < 0.95*big {
		t.Fatalf("4 buffers reach %.1f MB/s vs %.1f with 32 — streaming should need few",
			small/1e6, big/1e6)
	}
}

func TestValidBitsFinerIsFaster(t *testing.T) {
	fine, coarse := ValidBitGranularity(apps.Env{})
	if fine >= coarse {
		t.Fatalf("32-byte valid bits (%v) not faster than whole-packet (%v)", fine, coarse)
	}
}

func TestOutReserveDoesNotStarve(t *testing.T) {
	// Even a single reserved output buffer must let a send-heavy handler
	// make progress (no deadlock, comparable throughput).
	pts := OutReserve(apps.Env{}, []int{1, 4})
	if pts[0].Bytes <= 0 {
		t.Fatal("reserve=1 starved the handler")
	}
	if pts[0].Bytes < 0.9*pts[1].Bytes {
		t.Fatalf("reserve=1 (%.1f MB/s) far below reserve=4 (%.1f MB/s)",
			pts[0].Bytes/1e6, pts[1].Bytes/1e6)
	}
}

func TestCPUClockScalesComputeBoundFilter(t *testing.T) {
	pts := CPUClock(apps.Env{}, []int{250, 500, 1000})
	if !(pts[0].Bytes < pts[1].Bytes && pts[1].Bytes < pts[2].Bytes) {
		t.Fatalf("throughput not monotone in clock: %v", pts)
	}
	// At 250 MHz the 8-cycle/byte filter caps at ~31 MB/s; check the
	// compute bound is what we hit (within 15%).
	cap250 := 250e6 / 8
	if pts[0].Bytes > cap250 || pts[0].Bytes < 0.8*cap250 {
		t.Fatalf("250 MHz throughput %.1f MB/s, want near the %.1f MB/s compute bound",
			pts[0].Bytes/1e6, cap250/1e6)
	}
}

// TestReportRenders pins the whole report byte for byte (it takes well
// under a second, so it runs under -short too). A change that means to move
// a study's numbers regenerates the file with
// `go run ./cmd/sansweep -sweep ablation > internal/ablation/testdata/report.txt`.
func TestReportRenders(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Report(apps.Env{}); got != string(want) {
		t.Fatalf("report differs from testdata/report.txt:\n%s", got)
	}
}

func TestUtilTimeline(t *testing.T) {
	tl := UtilTimeline(apps.Env{})
	if n := len(tl.X); n < 10 {
		t.Fatalf("timeline has %d samples", n)
	}
	// Utilization climbs from the seek-dominated start toward the
	// steady-state streaming value.
	if tl.Y[len(tl.Y)-1] <= tl.Y[0] {
		t.Fatalf("utilization did not rise: first %.3f last %.3f", tl.Y[0], tl.Y[len(tl.Y)-1])
	}
	for _, u := range tl.Y {
		if u < 0 || u > 1.01 {
			t.Fatalf("utilization %v out of range", u)
		}
	}
}

func TestFilterPlacementSavesTrunkBandwidth(t *testing.T) {
	pl := FilterPlacement(apps.Env{})
	if pl.StorageSide <= 0 || pl.HostSide <= 0 {
		t.Fatalf("placement bytes = %+v", pl)
	}
	// A 25% filter before the trunk should cut trunk traffic to ~1/4 of
	// the host-side placement.
	ratio := float64(pl.StorageSide) / float64(pl.HostSide)
	if ratio < 0.2 || ratio > 0.35 {
		t.Fatalf("trunk ratio = %.3f, want ~0.25 (%d vs %d)", ratio, pl.StorageSide, pl.HostSide)
	}
}

func TestRequestSizeCutsHostUtil(t *testing.T) {
	pts := RequestSize(apps.Env{}, []int64{64 * 1024, 1 << 20})
	small, big := pts[0].Bytes/1e6, pts[1].Bytes/1e6
	if !(big < small/4) {
		t.Fatalf("1MB requests (util %.4f) should cut 64KB-request util (%.4f) by >4x", big, small)
	}
}

package twolevel

import (
	"testing"

	"activesan/internal/stats"
)

func testParams() Params {
	prm := DefaultParams()
	prm.TableBytes = 8 << 20
	return prm
}

func TestAllPlacementsAgree(t *testing.T) {
	prm := testParams()
	want := prm.ExpectedMatches()
	for _, m := range []Mode{OnHost, OnSwitch, OnDisk, TwoLevel} {
		run := Run(m, prm)
		if got := run.Extra["matches"].(int64); got != want {
			t.Errorf("%s: matches = %d, want %d", m, got, want)
		}
	}
}

func TestTrafficOrdering(t *testing.T) {
	// Host traffic must fall monotonically as the predicate moves toward
	// the data: full table > matching records > a single count.
	prm := testParams()
	res := RunAll(prm)
	get := func(name string) stats.Run {
		r, ok := res.Run(name)
		if !ok {
			t.Fatalf("missing run %q", name)
		}
		return r
	}
	host := get("host")
	sw := get("switch")
	disk := get("disk")
	two := get("two-level")
	if !(sw.Traffic < host.Traffic/2) {
		t.Errorf("switch traffic %d not well below host %d", sw.Traffic, host.Traffic)
	}
	if !(disk.Traffic < host.Traffic/2) {
		t.Errorf("disk traffic %d not well below host %d", disk.Traffic, host.Traffic)
	}
	// Two-level: almost nothing reaches the host.
	if two.Traffic > host.Traffic/100 {
		t.Errorf("two-level traffic %d not near zero (host %d)", two.Traffic, host.Traffic)
	}
	// The fabric sees less data in the two-level case than the switch-only
	// case: the disk removed 75% before the wire.
	if two.Time > sw.Time*11/10 {
		t.Errorf("two-level (%v) slower than switch-only (%v)", two.Time, sw.Time)
	}
}

func TestDiskFilterDoesNotSlowStream(t *testing.T) {
	// A 2-cycle/byte filter on the 200 MHz disk core handles 100 MB/s:
	// the filtered run must stay disk-bound, not filter-bound.
	prm := testParams()
	host := Run(OnHost, prm)
	disk := Run(OnDisk, prm)
	if disk.Time > host.Time*11/10 {
		t.Errorf("disk filtering (%v) much slower than plain streaming (%v)", disk.Time, host.Time)
	}
}

// ExpectedMatches is the oracle.
func (prm Params) ExpectedMatches() int64 {
	n := prm.TableBytes / recordSize
	var c int64
	for i := int64(0); i < n; i++ {
		if Matches(i) {
			c++
		}
	}
	return c
}

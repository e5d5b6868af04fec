package psort

import (
	"testing"

	"activesan/internal/apps"
)

func testParams() Params {
	prm := DefaultParams()
	prm.Records = 64 << 10 // 6.4 MB total
	return prm
}

func TestDestPartitioning(t *testing.T) {
	// Every key maps to a valid node, and the split is roughly even for
	// uniform keys.
	const p = 4
	var counts [p]int
	for i := int64(0); i < 100000; i++ {
		d := Dest(Key(i), p)
		if d < 0 || d >= p {
			t.Fatalf("Dest out of range: %d", d)
		}
		counts[d]++
	}
	for d, n := range counts {
		frac := float64(n) / 100000
		if frac < 0.22 || frac > 0.28 {
			t.Fatalf("node %d got %.3f of keys, want ~0.25", d, frac)
		}
	}
}

func TestRecordsInCoversPartitionExactly(t *testing.T) {
	prm := testParams()
	perNode := prm.Records / int64(prm.Hosts)
	perNodeBytes := perNode * RecordSize
	for j := 0; j < prm.Hosts; j++ {
		var total int64
		seen := make(map[int64]bool)
		for off := int64(0); off < perNodeBytes; off += 512 {
			end := off + 512
			if end > perNodeBytes {
				end = perNodeBytes
			}
			lo, hi := recordsIn(prm, j, off, end)
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Fatalf("record %d counted twice", i)
				}
				seen[i] = true
			}
			total += hi - lo
		}
		if total != perNode {
			t.Fatalf("node %d covered %d records, want %d", j, total, perNode)
		}
	}
}

func TestDistributionCorrectAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all four configurations at 64K records")
	}
	prm := testParams()
	wantCounts, wantSums := prm.Oracle()
	for _, cfg := range apps.AllConfigs {
		run := Run(cfg, prm)
		counts := run.Extra["counts"].([]int64)
		sums := run.Extra["sums"].([]uint64)
		for j := 0; j < prm.Hosts; j++ {
			if counts[j] != wantCounts[j] {
				t.Errorf("%s: node %d received %d records, want %d", cfg, j, counts[j], wantCounts[j])
			}
			if sums[j] != wantSums[j] {
				t.Errorf("%s: node %d key sum mismatch", cfg, j)
			}
		}
	}
}

func TestShapeSort(t *testing.T) {
	// Paper Figures 13/14: results mirror Grep — normal worst — and the
	// headline is traffic: per-node data in the active cases is ~40% of
	// normal at p=4 (limit p/(3p-2)).
	if testing.Short() {
		t.Skip("simulates the full four-configuration figure")
	}
	prm := testParams()
	res := RunAll(prm)
	normal := res.Baseline()
	a, _ := res.Run("active")

	if !(a.Time <= normal.Time) {
		t.Errorf("active (%v) not faster than normal (%v)", a.Time, normal.Time)
	}
	ratio := float64(a.Traffic) / float64(normal.Traffic)
	want := float64(prm.Hosts) / float64(3*prm.Hosts-2)
	if ratio < want-0.08 || ratio > want+0.08 {
		t.Errorf("traffic ratio = %.3f, want ~%.3f (p/(3p-2))", ratio, want)
	}
	// Active host utilization is far below normal (redistribution is
	// offloaded).
	if a.HostUtil() > 0.5*normal.HostUtil() {
		t.Errorf("active util %.3f vs normal %.3f: reduction too small", a.HostUtil(), normal.HostUtil())
	}
}

func TestOtherNodeCounts(t *testing.T) {
	// Traffic follows p/(3p-2) at p=2 and p=8 as well.
	if testing.Short() {
		t.Skip("simulates two extra node counts")
	}
	for _, hosts := range []int{2, 8} {
		prm := testParams()
		prm.Hosts = hosts
		prm.Records = 32 << 10
		n := Run(apps.NormalPref, prm)
		a := Run(apps.ActivePref, prm)
		want := float64(hosts) / float64(3*hosts-2)
		ratio := float64(a.Traffic) / float64(n.Traffic)
		if ratio < want-0.08 || ratio > want+0.08 {
			t.Errorf("p=%d: traffic ratio %.3f, want ~%.3f", hosts, ratio, want)
		}
	}
}

// Oracle computes each destination's expected record count and key sum.
func (prm Params) Oracle() (counts []int64, sums []uint64) {
	counts = make([]int64, prm.Hosts)
	sums = make([]uint64, prm.Hosts)
	for i := int64(0); i < prm.Records; i++ {
		k := Key(i)
		d := Dest(k, prm.Hosts)
		counts[d]++
		sums[d] += k
	}
	return counts, sums
}

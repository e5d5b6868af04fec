package cache

import (
	"math"
	"testing"

	"activesan/internal/sim"
)

// diffBases are where the differential tests' addresses cluster: zero,
// below zero, ±2^61, and the ends of the int64 range, where a tag word's
// shifted line address would first lose bits.
var diffBases = []int64{0, -1 << 20, 1 << 61, -1 << 61, math.MaxInt64 - 1<<16, math.MinInt64}

// diffRuns returns the seeded run count: the full budget, or a small fixed
// one under -short.
func diffRuns(full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// TestCacheMatchesReference drives Cache and the earlier LRU-tick layout
// (refCache) through the same seeded Access, Contains, Invalidate and
// Flush sequences and requires every return value and the final Stats to
// agree. Each run picks an associativity from 1 to 16, a line size from 4
// to 128 bytes and 1 to 64 sets, and draws addresses from a few more lines
// per set than there are ways, over a few sets around diffBases, so sets
// fill, hit, evict, write back and take holes from Invalidate.
func TestCacheMatchesReference(t *testing.T) {
	const ops = 20000
	assocs := []int{1, 2, 4, 8, 16}
	for run := 0; run < diffRuns(240); run++ {
		r := sim.NewRand(0xcac4e<<16 | uint64(run))
		cfg := Config{Name: "diff", Assoc: assocs[run%len(assocs)], LineSize: 4 << r.Intn(6)}
		sets := int64(1) << r.Intn(7)
		cfg.Size = sets * cfg.LineSize * int64(cfg.Assoc)
		got, want := New(cfg), newRefCache(cfg)
		// A pool of lines over at most three sets, with a few more lines
		// per set than there are ways.
		hot := min(sets, 3)
		pool := make([]int64, hot*int64(cfg.Assoc+1+r.Intn(cfg.Assoc+2)))
		for i := range pool {
			line := r.Int63n(int64(cfg.Assoc)+8)*sets + int64(i)%hot
			pool[i] = diffBases[r.Intn(len(diffBases))] + line*cfg.LineSize
		}
		addr := func() int64 { return pool[r.Intn(len(pool))] + r.Int63n(cfg.LineSize) }
		for i := 0; i < ops; i++ {
			a := addr()
			var g, w [2]bool
			op := r.Intn(2000)
			switch {
			case op < 1400:
				write := r.Intn(3) == 0
				g[0], g[1] = got.Access(a, write)
				w[0], w[1] = want.Access(a, write)
			case op < 1700:
				g[0], w[0] = got.Contains(a), want.Contains(a)
			case op < 1999:
				g[0], w[0] = got.Invalidate(a), want.Invalidate(a)
			default:
				gd, wd := got.Flush(), want.Flush()
				g[0], w[0] = gd > 0, wd > 0
				if gd != wd {
					t.Fatalf("run %d %+v op %d: Flush = %d dirty, reference %d", run, cfg, i, gd, wd)
				}
			}
			if g != w {
				t.Fatalf("run %d %+v op %d (kind %d, addr %#x): got %v, reference %v",
					run, cfg, i, op, a, g, w)
			}
		}
		if got.Stats() != want.stats {
			t.Fatalf("run %d %+v: stats %+v, reference %+v", run, cfg, got.Stats(), want.stats)
		}
	}
}

// TestTLBMatchesReference drives TLB and the earlier LRU-tick layout
// (refTLB) through the same seeded lookups: 1 to 64 entries, pages of 1 B
// to 64 KB, and a page pool a little larger than the TLB around diffBases,
// with negative pages among the candidates, so that an unused entry which
// matched some page would show.
func TestTLBMatchesReference(t *testing.T) {
	const ops = 20000
	for run := 0; run < diffRuns(160); run++ {
		r := sim.NewRand(0x71b<<16 | uint64(run))
		entries := 1 + r.Intn(64)
		pageSize := int64(1) << r.Intn(17)
		got, want := NewTLB(entries, pageSize), newRefTLB(entries, pageSize)
		pool := make([]int64, entries+1+r.Intn(entries+2))
		for i := range pool {
			page := int64(r.Intn(2*len(pool)) - 2)
			pool[i] = diffBases[r.Intn(len(diffBases))] + page*pageSize
		}
		for i := 0; i < ops; i++ {
			a := pool[r.Intn(len(pool))] + r.Int63n(pageSize)
			if g, w := got.Lookup(a), want.Lookup(a); g != w {
				t.Fatalf("run %d (%d entries, %d B pages) lookup %d of %#x: hit %v, reference %v",
					run, entries, pageSize, i, a, g, w)
			}
		}
		if got.Stats() != want.stats {
			t.Fatalf("run %d: stats %+v, reference %+v", run, got.Stats(), want.stats)
		}
	}
}

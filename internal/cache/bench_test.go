package cache

import "testing"

// BenchmarkCacheAccess measures the tag-array lookup that every simulated
// memory reference pays, over a mixed address stream: a hot working set that
// mostly hits (most on way 0, the set's most recent line) plus a striding
// scan that forces misses and evictions of the last way.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "L1D", Size: 32 * 1024, LineSize: 64, Assoc: 2})
	// Deterministic LCG address mix: ~3/4 of references land in a 16 KB hot
	// set, the rest stride through 4 MB.
	const n = 1 << 12
	addrs := make([]int64, n)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		seed = seed*6364136223846793005 + 1442695040888963407
		if seed>>62 != 0 { // 3 in 4
			addrs[i] = int64(seed>>32) % (16 * 1024)
		} else {
			addrs[i] = int64(i) * 64 * 17 % (4 << 20)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(n-1)], i&7 == 0)
	}
}

func TestCacheAccessZeroAllocs(t *testing.T) {
	c := New(Config{Name: "L1D", Size: 8 * 1024, LineSize: 64, Assoc: 2})
	addr := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			c.Access(addr, i&1 == 0)
			addr += 4096 // new set each time, with wraps forcing evictions
		}
	})
	if allocs != 0 {
		t.Fatalf("Cache.Access allocated %.1f per run, want 0", allocs)
	}
}

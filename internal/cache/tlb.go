package cache

// TLB models a fully-associative translation buffer with LRU replacement
// (the paper's hosts have 64-entry instruction and data TLBs).
type TLB struct {
	pageBits uint
	// vpns holds the cached page numbers, most recently used first, so a
	// miss evicts the last entry. Entries start as page -1, which therefore
	// hits until misses have pushed every unused entry out.
	vpns  []int64
	stats Stats
}

// NewTLB returns a TLB with the given entry count and page size.
func NewTLB(entries int, pageSize int64) *TLB {
	if entries <= 0 || pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic("cache: invalid TLB geometry")
	}
	bits := uint(0)
	for p := pageSize; p > 1; p >>= 1 {
		bits++
	}
	vpns := make([]int64, entries)
	for i := range vpns {
		vpns[i] = -1
	}
	return &TLB{pageBits: bits, vpns: vpns}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Lookup translates addr, filling the entry on a miss, and reports whether
// the translation hit.
func (t *TLB) Lookup(addr int64) bool {
	vpn := addr >> t.pageBits
	v := t.vpns
	t.stats.Accesses++
	if v[0] == vpn { // the current page
		t.stats.Hits++
		return true
	}
	last := len(v) - 1
	hit := false
	for i := 1; i < len(v); i++ {
		if v[i] == vpn {
			last, hit = i, true
			break
		}
	}
	copy(v[1:last+1], v[:last])
	v[0] = vpn
	if hit {
		t.stats.Hits++
	} else {
		t.stats.Misses++
	}
	return hit
}

// PageSize returns the translation granularity in bytes.
func (t *TLB) PageSize() int64 { return 1 << t.pageBits }

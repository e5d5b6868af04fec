package cache

// TLB models a fully-associative translation buffer with LRU replacement
// (the paper's hosts have 64-entry instruction and data TLBs).
type TLB struct {
	pageBits uint
	// vpns holds the cached page numbers, most recently used first, so a
	// miss evicts the last entry. Its length counts the filled entries and
	// its capacity is the entry count.
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
	return &TLB{pageBits: bits, vpns: make([]int64, 0, entries)}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Lookup translates addr, filling the entry on a miss, and reports whether
// the translation hit.
func (t *TLB) Lookup(addr int64) bool {
	vpn := addr >> t.pageBits
	v := t.vpns
	t.stats.Accesses++
	if len(v) > 0 && v[0] == vpn { // the current page
		t.stats.Hits++
		return true
	}
	last := len(v) // vpn's entry, or len(v) on a miss
	for i := 1; i < len(v); i++ {
		if v[i] == vpn {
			last = i
			break
		}
	}
	hit := last < len(v)
	switch {
	case hit:
		t.stats.Hits++
	case len(v) < cap(v): // a miss fills an unused entry
		t.stats.Misses++
		v = v[:last+1]
		t.vpns = v
	default: // a miss evicts the last entry
		t.stats.Misses++
		last--
	}
	copy(v[1:last+1], v[:last])
	v[0] = vpn
	return hit
}

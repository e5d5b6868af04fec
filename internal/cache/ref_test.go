package cache

// refCache and refTLB are the earlier layouts of Cache and TLB, kept as test
// oracles: refCache stores each way as a struct with its own LRU tick and
// evicts the way with the oldest tick; refTLB does the same per entry. The
// differential tests in diff_test.go drive them side by side with Cache and
// TLB.

type refLine struct {
	tag   int64
	valid bool
	dirty bool
	lru   int64 // higher = more recently used
}

type refCache struct {
	lines   []refLine // way w of set s is lines[s*assoc+w]
	assoc   int64
	setMask int64
	shift   uint
	tick    int64
	stats   Stats
	mru     []int32 // each set's most recently touched way, a probe hint
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := cfg.sets()
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	return &refCache{
		lines:   make([]refLine, n*int64(cfg.Assoc)),
		assoc:   int64(cfg.Assoc),
		setMask: n - 1,
		shift:   shift,
		mru:     make([]int32, n),
	}
}

func (c *refCache) index(addr int64) (set int64, tag int64) {
	lineAddr := addr >> c.shift
	return lineAddr & c.setMask, lineAddr
}

func (c *refCache) ways(set int64) []refLine {
	lo := set * c.assoc
	return c.lines[lo : lo+c.assoc : lo+c.assoc]
}

func (c *refCache) Access(addr int64, write bool) (hit bool, writeback bool) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	c.tick++
	c.stats.Accesses++
	if m := c.mru[set]; int(m) < len(ways) {
		if w := &ways[m]; w.valid && w.tag == tag {
			w.lru = c.tick
			if write {
				w.dirty = true
			}
			c.stats.Hits++
			return true, false
		}
	}
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			c.mru[set] = int32(i)
			c.stats.Hits++
			return true, false
		}
	}
	c.stats.Misses++
	// Choose victim: first invalid way, else least recently used.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid {
		c.stats.Evictions++
		if ways[victim].dirty {
			writeback = true
			c.stats.Writebacks++
		}
	}
	ways[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	c.mru[set] = int32(victim)
	return false, writeback
}

func (c *refCache) Contains(addr int64) bool {
	set, tag := c.index(addr)
	for _, w := range c.ways(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr int64) bool {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i] = refLine{}
			return true
		}
	}
	return false
}

func (c *refCache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
	}
	clear(c.lines)
	return dirty
}

type refTLB struct {
	pageBits uint
	vpns     []int64
	lru      []int64
	tick     int64
	stats    Stats
}

func newRefTLB(entries int, pageSize int64) *refTLB {
	bits := uint(0)
	for p := pageSize; p > 1; p >>= 1 {
		bits++
	}
	vpns := make([]int64, entries)
	for i := range vpns {
		vpns[i] = -1
	}
	return &refTLB{pageBits: bits, vpns: vpns, lru: make([]int64, entries)}
}

func (t *refTLB) Lookup(addr int64) bool {
	vpn := addr >> t.pageBits
	t.tick++
	t.stats.Accesses++
	victim := 0
	for i, v := range t.vpns {
		if v == vpn {
			t.lru[i] = t.tick
			t.stats.Hits++
			return true
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.stats.Misses++
	t.vpns[victim] = vpn
	t.lru[victim] = t.tick
	return false
}

// Package cache models set-associative write-back caches and TLBs with LRU
// replacement, plus the host's two-level hierarchy over the RDRAM model.
// Benchmarks issue representative address streams through these models; the
// resulting hit/miss behaviour drives the cache-stall components of the
// paper's execution-time breakdowns.
package cache

import "fmt"

// Config describes one cache array.
type Config struct {
	Name     string
	Size     int64 // total bytes
	LineSize int64 // bytes per line
	Assoc    int   // ways per set
}

func (c Config) sets() int64 {
	return c.Size / (c.LineSize * int64(c.Assoc))
}

func (c Config) validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, line size and associativity must be positive", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineSize)
	}
	n := c.sets()
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("cache %q: %d sets (size/line/assoc must give a power of two)", c.Name, n)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// MissRate returns misses/accesses, or 0 before any access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   int64
	valid bool
	dirty bool
	lru   int64 // higher = more recently used
}

// Cache is a single set-associative array. It models tags only — data
// contents live in the benchmark's own Go values.
type Cache struct {
	cfg Config
	// lines holds every tag, set-major: way w of set s is lines[s*assoc+w].
	// One pointer-free array costs one allocation and no GC scanning.
	lines   []line
	assoc   int64
	setMask int64
	shift   uint
	tick    int64
	stats   Stats

	// mru holds each set's most-recently-touched way — a probe hint only,
	// validated on every use. Consecutive references to a hot line (the
	// dominant access pattern in streaming handlers) hit on the first tag
	// compare instead of scanning the set.
	mru []int32
}

// New builds a cache; invalid geometry panics (experiment-setup error).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := cfg.sets()
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, n*int64(cfg.Assoc)),
		assoc:   int64(cfg.Assoc),
		setMask: n - 1,
		shift:   shift,
		mru:     make([]int32, n),
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr int64) (set int64, tag int64) {
	lineAddr := addr >> c.shift
	// The tag keeps the full line address: it can never collide across sets
	// and needs no extra masking on each compare.
	return lineAddr & c.setMask, lineAddr
}

// ways returns set's lines.
func (c *Cache) ways(set int64) []line {
	lo := set * c.assoc
	return c.lines[lo : lo+c.assoc : lo+c.assoc]
}

// Access looks up addr, allocating the line on a miss. It returns whether
// the access hit and, on miss, whether a dirty victim was written back.
// write marks the line dirty.
func (c *Cache) Access(addr int64, write bool) (hit bool, writeback bool) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	c.tick++
	c.stats.Accesses++
	// MRU-first probe: re-touching the set's hottest line — the common case
	// for streaming reference patterns — resolves on one tag compare.
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
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	c.mru[set] = int32(victim)
	return false, writeback
}

// Contains reports whether addr's line is resident, without touching LRU or
// counters. Used by tests and invariant checks.
func (c *Cache) Contains(addr int64) bool {
	set, tag := c.index(addr)
	for _, w := range c.ways(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if resident (DMA coherence), reporting
// whether it was present.
func (c *Cache) Invalidate(addr int64) bool {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i] = line{}
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning how many dirty lines were
// discarded (the caller decides whether to charge writebacks).
func (c *Cache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
	}
	clear(c.lines)
	return dirty
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int64 { return c.cfg.LineSize }

// LineBase returns the base address of addr's line.
func (c *Cache) LineBase(addr int64) int64 { return addr &^ (c.cfg.LineSize - 1) }

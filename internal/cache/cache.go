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
	if c.LineSize < 4 { // a tag word's two flag bits sit in the line offset
		return fmt.Errorf("cache %q: line size %d below 4 bytes", c.Name, c.LineSize)
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

// A tag word holds one way: the line address shifted left two bits, then a
// dirty bit and a valid bit. Zero is an invalid way. Lines of at least 4
// bytes (Config.validate) shift off two address bits, so the word keeps the
// whole line address and two lines never share a word.
const (
	validBit uint64 = 1 << iota
	dirtyBit
)

// Cache is a single set-associative array. It models tags only — data
// contents live in the benchmark's own Go values.
type Cache struct {
	cfg Config
	// tags holds every way's tag word, set-major: set s is
	// tags[s*assoc : (s+1)*assoc], most recently touched line first. A hit
	// or a fill moves its line to the front, so the last way of a full set
	// is its least recently used line. Invalidate leaves a hole (a zero
	// word) in place; the valid lines keep their order around it.
	tags    []uint64
	assoc   int64
	setMask int64
	shift   uint
	stats   Stats
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
		tags:    make([]uint64, n*int64(cfg.Assoc)),
		assoc:   int64(cfg.Assoc),
		setMask: n - 1,
		shift:   shift,
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// lookup returns the ways of addr's set and key, the tag word of addr's
// line with both flag bits set: way w holds the line when w|dirtyBit == key.
func (c *Cache) lookup(addr int64) (ways []uint64, key uint64) {
	lineAddr := addr >> c.shift
	lo := (lineAddr & c.setMask) * c.assoc
	return c.tags[lo : lo+c.assoc : lo+c.assoc], uint64(lineAddr)<<2 | dirtyBit | validBit
}

// Access looks up addr, allocating the line on a miss. It returns whether
// the access hit and, on miss, whether a dirty victim was written back.
// write marks the line dirty.
func (c *Cache) Access(addr int64, write bool) (hit bool, writeback bool) {
	ways, key := c.lookup(addr)
	c.stats.Accesses++
	if w := ways[0]; w|dirtyBit == key { // a repeat touch moves nothing
		if write {
			ways[0] = key
		}
		c.stats.Hits++
		return true, false
	}
	for i := 1; i < len(ways); i++ {
		if w := ways[i]; w|dirtyBit == key {
			if write {
				w = key
			}
			copy(ways[1:i+1], ways[:i])
			ways[0] = w
			c.stats.Hits++
			return true, false
		}
	}
	c.stats.Misses++
	// The fill takes the first hole, else evicts the last way.
	victim := len(ways) - 1
	for i, w := range ways[:victim] {
		if w == 0 {
			victim = i
			break
		}
	}
	if w := ways[victim]; w != 0 {
		c.stats.Evictions++
		if w&dirtyBit != 0 {
			writeback = true
			c.stats.Writebacks++
		}
	}
	copy(ways[1:victim+1], ways[:victim])
	if !write {
		key &^= dirtyBit
	}
	ways[0] = key
	return false, writeback
}

// Contains reports whether addr's line is resident, without touching
// recency or counters. Used by tests and invariant checks.
func (c *Cache) Contains(addr int64) bool {
	ways, key := c.lookup(addr)
	for _, w := range ways {
		if w|dirtyBit == key {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if resident (DMA coherence), reporting
// whether it was present.
func (c *Cache) Invalidate(addr int64) bool {
	ways, key := c.lookup(addr)
	for i, w := range ways {
		if w|dirtyBit == key {
			ways[i] = 0
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning how many dirty lines were
// discarded (the caller decides whether to charge writebacks).
func (c *Cache) Flush() (dirty int) {
	for _, w := range c.tags {
		if w&dirtyBit != 0 {
			dirty++
		}
	}
	clear(c.tags)
	return dirty
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int64 { return c.cfg.LineSize }

// LineBase returns the base address of addr's line.
func (c *Cache) LineBase(addr int64) int64 { return addr &^ (c.cfg.LineSize - 1) }

// Package mem models the data/instruction cache hierarchy, the
// instruction TLB, and backing memory latencies. The hierarchy exists
// for two reasons: the classic Spectre-v1 baseline in Table II transmits
// over the LLC with flush+reload, and the micro-op cache is inclusive
// with respect to the L1I and the iTLB, so evictions and flushes there
// must propagate into the micro-op cache via hooks.
package mem

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Sets     int // number of sets (power of two)
	Ways     int // associativity
	LineSize int // bytes per line (power of two)
	Latency  int // hit latency in cycles
}

// Lines returns the total line capacity.
func (c CacheConfig) Lines() int { return c.Sets * c.Ways }

// Bytes returns the total data capacity in bytes.
func (c CacheConfig) Bytes() int { return c.Lines() * c.LineSize }

func (c CacheConfig) validate(name string) error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: %s sets %d not a positive power of two", name, c.Sets)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: %s line size %d not a positive power of two", name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s ways %d not positive", name, c.Ways)
	}
	return nil
}

// CacheStats counts accesses to one cache level.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
}

// line is one cache line's metadata. The model tracks presence and
// recency only; data contents live in the CPU's flat memory image.
type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is one set-associative, true-LRU cache level. Lines are stored
// flat and set-major: set s occupies lines[s*Ways : (s+1)*Ways].
type Cache struct {
	cfg   CacheConfig
	lines []line
	clock uint64
	stats CacheStats

	// touched lists every set a fill has ever reached, in first-touch
	// order; istouched is its membership index. Save/Restore walk only
	// these sets, so snapshotting an 8192-set LLC whose workload lives
	// in a dozen sets copies a dozen rows.
	touched   []int32
	istouched []bool

	lineShift uint   // log2(LineSize)
	setBits   uint   // log2(Sets): the tag is the line address above them
	setMask   uint64 // Sets − 1

	// onEvict, if set, is called with the line-aligned address of every
	// line leaving this level (capacity eviction, back-invalidation, or
	// flush). The micro-op cache's L1I-inclusion hook hangs here.
	onEvict func(lineAddr uint64)
}

// NewCache builds a cache level. It panics on an invalid configuration;
// configurations are static in this codebase.
func NewCache(name string, cfg CacheConfig) *Cache {
	if err := cfg.validate(name); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Lines()),
		istouched: make([]bool, cfg.Sets),
		lineShift: log2(uint64(cfg.LineSize)),
		setBits:   log2(uint64(cfg.Sets)),
		setMask:   uint64(cfg.Sets - 1),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the level's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// SetEvictHook installs fn to observe every line leaving the cache.
func (c *Cache) SetEvictHook(fn func(lineAddr uint64)) { c.onEvict = fn }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setBits
}

// set returns set s's ways.
func (c *Cache) set(s int) []line {
	w := c.cfg.Ways
	return c.lines[s*w : (s+1)*w : (s+1)*w]
}

// LineAddr returns the line-aligned base address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// Lookup probes without filling. It reports a hit and updates recency.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			return true
		}
	}
	return false
}

// Access probes and fills on miss, evicting LRU. It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	set, tag := c.index(addr)
	c.clock++
	ways := c.set(set)
	victim := 0
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			c.stats.Hits++
			return true
		}
		if !ways[victim].valid {
			continue
		}
		if !l.valid || l.used < ways[victim].used {
			victim = i
		}
	}
	c.stats.Misses++
	v := &ways[victim]
	if v.valid {
		c.stats.Evicts++
		c.notifyEvict(set, v.tag)
	}
	*v = line{tag: tag, valid: true, used: c.clock}
	// Fills are the only way a line becomes valid, so marking here
	// keeps touched a superset of every set holding state.
	if !c.istouched[set] {
		c.istouched[set] = true
		c.touched = append(c.touched, int32(set))
	}
	return false
}

func (c *Cache) notifyEvict(set int, tag uint64) {
	if c.onEvict == nil {
		return
	}
	lineAddr := (tag<<c.setBits | uint64(set)) << c.lineShift
	c.onEvict(lineAddr)
}

// Invalidate removes the line containing addr, if present, reporting
// whether a line was removed. The eviction hook fires.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.valid = false
			c.notifyEvict(set, tag)
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache. Eviction hooks fire for every line.
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid {
			l.valid = false
			c.notifyEvict(i/c.cfg.Ways, l.tag)
		}
	}
}

// CacheState is a sparse snapshot of one level's dynamic contents:
// only ever-touched sets are stored (index list plus their way rows),
// so snapshot cost scales with the workload's footprint, not the
// level's capacity. Backing arrays are recycled across Save calls, and
// a snapshot only restores into a cache built from the same geometry.
// Eviction hooks belong to the live cache and are untouched by
// Save/Restore.
type CacheState struct {
	numSets int
	ways    int
	sets    []int32
	lines   []line
	clock   uint64
	stats   CacheStats
}

// Save deep-copies every touched set's rows into s, reusing s's
// buffers.
func (c *Cache) Save(s *CacheState) {
	w := c.cfg.Ways
	s.numSets, s.ways = c.cfg.Sets, w
	s.sets = append(s.sets[:0], c.touched...)
	n := len(c.touched) * w
	if cap(s.lines) < n {
		s.lines = make([]line, n)
	}
	s.lines = s.lines[:n]
	for i, set := range c.touched {
		copy(s.lines[i*w:(i+1)*w], c.set(int(set)))
	}
	s.clock = c.clock
	s.stats = c.stats
}

// Restore overwrites the level's contents from s: sets touched since
// the snapshot but absent from it are zeroed, snapshot sets are copied
// back, and the touched list becomes the snapshot's. It panics if s
// was saved from a level with different geometry. No eviction hooks
// fire: a restore is state substitution, not cache traffic.
func (c *Cache) Restore(s *CacheState) {
	if s.numSets != c.cfg.Sets || s.ways != c.cfg.Ways {
		panic("mem: Restore from a checkpoint with different geometry")
	}
	for _, set := range c.touched {
		clear(c.set(int(set)))
		c.istouched[set] = false
	}
	c.touched = c.touched[:0]
	w := c.cfg.Ways
	for i, set := range s.sets {
		copy(c.set(int(set)), s.lines[i*w:(i+1)*w])
		c.istouched[set] = true
		c.touched = append(c.touched, set)
	}
	c.clock = s.clock
	c.stats = s.stats
}

// Contains probes without touching recency or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

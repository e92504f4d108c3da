// Package uopcache models the micro-op cache (Intel's DSB, AMD's op
// cache) characterized in §II-III of the paper: a streaming,
// set-associative cache of decoded micro-ops indexed by bits 5-9 of the
// macro-op virtual address, governed by the placement rules the paper
// documents and the hotness-based replacement and SMT
// partitioning/sharing policies it reverse-engineers.
package uopcache

import (
	"fmt"

	"deaduops/internal/isa"
)

// SMTPolicy selects how two hardware threads share the structure.
type SMTPolicy int

const (
	// PartitionStatic is the Intel policy: in SMT mode each thread sees
	// a statically assigned half of the cache, organized as Sets/2
	// fully associative-width sets (Fig 7: 16 sets of 8 ways each).
	PartitionStatic SMTPolicy = iota
	// ShareCompetitive is the AMD Zen policy: both threads compete for
	// all lines; one thread's fills evict the other's lines (§V-B).
	ShareCompetitive
)

// String implements fmt.Stringer.
func (p SMTPolicy) String() string {
	switch p {
	case PartitionStatic:
		return "static-partition"
	case ShareCompetitive:
		return "competitive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config sizes and parameterizes the micro-op cache.
type Config struct {
	Sets         int // number of sets (power of two)
	Ways         int // lines per set
	SlotsPerLine int // micro-op slots per line (6 on Skylake)
	// MaxLinesPerRegion caps how many ways one 32-byte code region may
	// occupy (3 on Skylake; an 18-µop region is the largest cacheable).
	MaxLinesPerRegion int
	// IndexLoBit is the lowest address bit of the set index; regions
	// are 1<<IndexLoBit bytes (bit 5 → 32-byte regions).
	IndexLoBit uint
	// MaxBranchesPerLine caps branch micro-ops per line (2 on Skylake).
	MaxBranchesPerLine int
	// HotnessMax saturates the per-line hotness counter. A small cap
	// (a few bits, as a real implementation would afford) bounds how
	// long a once-hot line can resist eviction pressure.
	HotnessMax int
	// SMT selects the sharing policy when two threads are active.
	SMT SMTPolicy
	// PrivilegePartition statically partitions the cache between user
	// and kernel domains (a §VIII candidate mitigation): each domain
	// sees half the sets, so kernel execution cannot evict user lines.
	PrivilegePartition bool
	// SwitchPenalty is the DSB→MITE switch cost in cycles (1 on
	// Skylake).
	SwitchPenalty int
	// StreamWidth is the per-cycle µop delivery bandwidth on a hit
	// (6 on Skylake).
	StreamWidth int
	// Disabled turns the structure into a pure MITE-only control: every
	// lookup misses, every fill is rejected as uncacheable, and traces
	// built against this configuration report dsb-disabled. Geometry
	// fields are kept so set/region arithmetic (receiver layout, probe
	// chains) still works; only the caching behaviour is removed.
	Disabled bool
}

// Skylake returns the Intel Skylake/Coffee Lake configuration the paper
// characterizes: 32 sets × 8 ways × 6 µops = 1536 µops, statically
// partitioned under SMT.
func Skylake() Config {
	return Config{
		Sets: 32, Ways: 8, SlotsPerLine: 6,
		MaxLinesPerRegion: 3, IndexLoBit: 5,
		MaxBranchesPerLine: 2, HotnessMax: 8,
		SMT: PartitionStatic, SwitchPenalty: 1, StreamWidth: 6,
	}
}

// SunnyCove returns the Intel Sunny Cove-like configuration: the paper
// notes the micro-op cache grew 1.5× over Skylake (2304 µops, modelled
// as 12 ways).
func SunnyCove() Config {
	c := Skylake()
	c.Ways = 12
	return c
}

// Zen returns an AMD Zen-like configuration: 2K µops, competitively
// shared between SMT threads.
func Zen() Config {
	return Config{
		Sets: 32, Ways: 8, SlotsPerLine: 8,
		MaxLinesPerRegion: 3, IndexLoBit: 5,
		MaxBranchesPerLine: 2, HotnessMax: 8,
		SMT: ShareCompetitive, SwitchPenalty: 1, StreamWidth: 8,
	}
}

// Zen2 returns an AMD Zen-2-like configuration: the paper notes Zen-2
// op caches hold as many as 4K µops (64 sets here, index bits 5-10).
func Zen2() Config {
	c := Zen()
	c.Sets = 64
	return c
}

// RegionSize returns the code-region granularity in bytes.
func (c Config) RegionSize() uint64 { return 1 << c.IndexLoBit }

// Capacity returns the total micro-op slot capacity.
func (c Config) Capacity() int { return c.Sets * c.Ways * c.SlotsPerLine }

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("uopcache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 || c.SlotsPerLine <= 0 || c.MaxLinesPerRegion <= 0 {
		return fmt.Errorf("uopcache: non-positive geometry %+v", c)
	}
	if c.MaxLinesPerRegion > c.Ways {
		return fmt.Errorf("uopcache: MaxLinesPerRegion %d exceeds ways %d", c.MaxLinesPerRegion, c.Ways)
	}
	return nil
}

// Stats counts micro-op cache events; the characterization experiments
// read these as their performance-counter analogues.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	StreamedUops  uint64 // µops delivered from the cache (IDQ.DSB_UOPS)
	Fills         uint64 // lines installed
	FillFailures  uint64 // fill attempts rejected by hotness protection
	Evictions     uint64
	Uncacheable   uint64 // regions rejected by placement rules
	FlushAll      uint64
	Invalidations uint64 // lines dropped by L1I/iTLB inclusion
}

// tag is the rest of a way's identity beside its key. Keys, tags and
// lines are kept in separate arrays, so a lookup scans a set's keys
// (one 64-byte cache line for 8 ways) and touches a way's tag and line
// only once its key matches.
type tag struct {
	owner uint8 // 0 when the way is empty, else the owning thread + 1
	seq   uint8 // line index within the trace
	total uint8 // number of lines in the trace
}

// line is one cached way's payload.
type line struct {
	uops    []isa.Uop
	slots   int
	hotness int
}

// Cache is the micro-op cache.
type Cache struct {
	cfg Config
	// keys, tags and lines hold every way, set by set: set s is the
	// Ways entries from s*Ways. A way's key is its trace's region base
	// | entry offset within the region.
	keys  []uint64
	tags  []tag
	lines []line
	// domain is each hardware thread's current privilege domain
	// (0 = user, 1 = kernel), consulted when PrivilegePartition is on.
	domain [2]int
	// victimPtr is each set's round-robin replacement pointer: fill
	// pressure rotates across ways, wearing every resident down
	// uniformly, so a loop that out-accesses a resident loop displaces
	// it — and one that doesn't, doesn't (Fig 5).
	victimPtr []int
	smtMode   bool
	stats     Stats
	setShift  uint
	// regionMask is RegionSize()−1, hoisted out of the per-lookup path.
	regionMask uint64
}

// New builds a micro-op cache. It panics on an invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:        cfg,
		keys:       make([]uint64, cfg.Sets*cfg.Ways),
		tags:       make([]tag, cfg.Sets*cfg.Ways),
		lines:      make([]line, cfg.Sets*cfg.Ways),
		victimPtr:  make([]int, cfg.Sets),
		regionMask: cfg.RegionSize() - 1,
	}
	for v := cfg.Sets; v > 1; v >>= 1 {
		c.setShift++
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetSMTMode switches between single-thread and SMT operation. Under
// Intel's static partitioning this changes the visible geometry; the
// cache is flushed on a mode change, as the physical set mapping moves.
func (c *Cache) SetSMTMode(on bool) {
	if c.smtMode == on {
		return
	}
	c.smtMode = on
	c.flushAllInternal()
}

// SMTMode reports whether SMT mode is active.
func (c *Cache) SMTMode() bool { return c.smtMode }

// RegionOf returns the region base address containing addr.
func (c *Cache) RegionOf(addr uint64) uint64 {
	return addr &^ c.regionMask
}

// setIndex maps (thread, region) to a physical set. In Intel SMT mode
// each thread owns a bank of Sets/2 sets indexed by one fewer address
// bit — the "16 8-way sets per thread" organization of Fig 7. With the
// privilege-partition mitigation enabled, the current privilege domain
// selects the bank instead.
func (c *Cache) setIndex(thread int, region uint64) int {
	idx := int(region>>c.cfg.IndexLoBit) & (c.cfg.Sets - 1)
	half := c.cfg.Sets / 2
	if c.cfg.PrivilegePartition {
		return (c.domain[thread&1]&1)*half + idx%half
	}
	if c.smtMode && c.cfg.SMT == PartitionStatic {
		return (thread&1)*half + idx%half
	}
	return idx
}

// SetDomain records thread's current privilege domain (0 = user,
// 1 = kernel) for the privilege-partition mitigation.
func (c *Cache) SetDomain(thread, domain int) {
	c.domain[thread&1] = domain
}

// VisibleSets returns how many sets one thread can reach right now.
func (c *Cache) VisibleSets(thread int) int {
	if c.cfg.PrivilegePartition || (c.smtMode && c.cfg.SMT == PartitionStatic) {
		return c.cfg.Sets / 2
	}
	return c.cfg.Sets
}

// owner is the tag owner value of thread's lines. Under competitive
// sharing lines are thread-tagged, so a lookup only hits its own
// thread's lines, but capacity is shared.
func owner(thread int) uint8 { return uint8(thread) + 1 }

// setKeys returns the keys of the set (thread, region) maps to and the
// index of its first way.
func (c *Cache) setKeys(thread int, region uint64) ([]uint64, int) {
	base := c.setIndex(thread, region) * c.cfg.Ways
	return c.keys[base : base+c.cfg.Ways], base
}

// Lookup streams the trace for the code at addr for the given hardware
// thread. On a hit it returns the trace's micro-ops in order and bumps
// line hotness. On a miss it returns nil.
func (c *Cache) Lookup(thread int, addr uint64) ([]isa.Uop, bool) {
	return c.LookupAppend(thread, addr, nil)
}

// LookupAppend is Lookup appending the streamed micro-ops to dst
// instead of allocating, so a caller owning a reusable buffer (the
// fetch engine's stream buffer) can stay allocation-free on every DSB
// hit. On a miss dst is returned unchanged.
func (c *Cache) LookupAppend(thread int, addr uint64, dst []isa.Uop) ([]isa.Uop, bool) {
	c.stats.Lookups++
	if c.cfg.Disabled {
		c.stats.Misses++
		return dst, false
	}
	keys, base := c.setKeys(thread, c.RegionOf(addr))
	own := owner(thread)

	// found[s] is 1 + the way holding the trace's s-th line.
	var found [8]int
	total := -1
	n := 0
	for w, k := range keys {
		if t := &c.tags[base+w]; k == addr && t.owner == own {
			if int(t.seq) < len(found) && found[t.seq] == 0 {
				found[t.seq] = w + 1
				n++
			}
			total = int(t.total)
		}
	}
	if total < 0 || n != total {
		c.stats.Misses++
		return dst, false
	}
	uops := dst
	for s := 0; s < total; s++ {
		if found[s] == 0 {
			c.stats.Misses++
			return dst, false
		}
		l := &c.lines[base+found[s]-1]
		if l.hotness < c.cfg.HotnessMax {
			l.hotness++
		}
		uops = append(uops, l.uops...)
	}
	c.stats.Hits++
	c.stats.StreamedUops += uint64(len(uops) - len(dst))
	return uops, true
}

// Present reports whether the trace for addr is fully cached, without
// perturbing hotness or statistics.
func (c *Cache) Present(thread int, addr uint64) bool {
	keys, base := c.setKeys(thread, c.RegionOf(addr))
	own := owner(thread)
	have := 0
	total := -1
	for w, k := range keys {
		if t := &c.tags[base+w]; k == addr && t.owner == own {
			have++
			total = int(t.total)
		}
	}
	return total >= 0 && have == total
}

// Fill attempts to install a built trace. The hotness replacement
// policy may refuse: a fill that would displace a line whose hotness
// has not been worn to zero instead decrements the victim and fails,
// so a cold evictor must out-access a hot resident before displacing
// it — the Fig 5 behaviour.
func (c *Cache) Fill(thread int, t *Trace) {
	if t == nil || !t.Cacheable || c.cfg.Disabled {
		c.stats.Uncacheable++
		return
	}
	setIdx := c.setIndex(thread, t.Region)
	base := setIdx * c.cfg.Ways
	keys := c.keys[base : base+c.cfg.Ways]
	tags := c.tags[base : base+c.cfg.Ways]
	key := t.Region | uint64(t.Entry)
	own := owner(thread)

	// Drop any stale partial trace for this (thread, region, entry).
	for w := range tags {
		if tg := &tags[w]; keys[w] == key && tg.owner == own {
			tg.owner = 0
			c.stats.Invalidations++
		}
	}

	for seq, lu := range t.Lines {
		victim := -1
		for w := range tags {
			if tags[w].owner == 0 {
				victim = w
				break
			}
		}
		if victim < 0 {
			// All ways valid: attack the way under the rotating
			// pointer. A hot resident absorbs the attempt (hotness
			// decremented) and the fill fails; a worn-out resident is
			// displaced.
			p := c.victimPtr[setIdx]
			c.victimPtr[setIdx] = (p + 1) % c.cfg.Ways
			v := &c.lines[base+p]
			if v.hotness > 0 {
				v.hotness--
				c.stats.FillFailures++
				return
			}
			c.stats.Evictions++
			victim = p
		}
		keys[victim] = key
		tags[victim] = tag{owner: own, seq: uint8(seq), total: uint8(len(t.Lines))}
		c.lines[base+victim] = line{uops: lu.Uops, slots: lu.Slots, hotness: 1}
		c.stats.Fills++
	}
}

// State is a deep snapshot of the cache's dynamic contents: every way
// (its key and tag, and its line's hotness and µops), the round-robin
// victim pointers, the privilege domains, the SMT mode, and the counters. Line micro-op
// slices are shared by header, not copied: a trace's µops are
// immutable once built (Fill stores references to them — the fetch
// engine fills the same memoized trace on every DSB miss of a group —
// and LookupAppend copies out of them), so sharing is safe across any
// number of restores and costs O(ways), not O(µops). Backing arrays
// are recycled across Save calls; a snapshot only restores into a
// cache built from the same geometry.
type State struct {
	keys      []uint64
	tags      []tag
	lines     []line
	victimPtr []int
	domain    [2]int
	smtMode   bool
	stats     Stats
}

// Save deep-copies the cache contents into s, reusing s's buffers.
func (c *Cache) Save(s *State) {
	s.keys = append(s.keys[:0], c.keys...)
	s.tags = append(s.tags[:0], c.tags...)
	s.lines = append(s.lines[:0], c.lines...)
	s.victimPtr = append(s.victimPtr[:0], c.victimPtr...)
	s.domain = c.domain
	s.smtMode = c.smtMode
	s.stats = c.stats
}

// Restore overwrites the cache contents from s. It panics if s was
// saved from a cache with different geometry.
func (c *Cache) Restore(s *State) {
	if len(s.tags) != len(c.tags) || len(s.victimPtr) != c.cfg.Sets {
		panic("uopcache: Restore from a checkpoint with different geometry")
	}
	copy(c.keys, s.keys)
	copy(c.tags, s.tags)
	copy(c.lines, s.lines)
	copy(c.victimPtr, s.victimPtr)
	c.domain = s.domain
	c.smtMode = s.smtMode
	c.stats = s.stats
}

// InvalidateCodeLine drops every trace whose region falls inside the
// 64-byte instruction-cache line at lineAddr — the inclusion property:
// an L1I eviction forces the corresponding micro-op cache lines out.
func (c *Cache) InvalidateCodeLine(lineAddr uint64, lineSize uint64) {
	start := lineAddr &^ (lineSize - 1)
	end := start + lineSize
	for w := range c.tags {
		t := &c.tags[w]
		if region := c.keys[w] &^ c.regionMask; t.owner != 0 && region >= start && region < end {
			t.owner = 0
			c.stats.Invalidations++
		}
	}
}

// FlushAll empties the cache (iTLB-flush inclusion, SGX enclave
// entry/exit, privilege-partitioning mitigations).
func (c *Cache) FlushAll() {
	c.stats.FlushAll++
	c.flushAllInternal()
}

func (c *Cache) flushAllInternal() {
	clear(c.keys)
	clear(c.tags)
	clear(c.lines)
}

// FlushThread drops all lines owned by one hardware thread (used by the
// privilege-partitioning mitigation experiments).
func (c *Cache) FlushThread(thread int) {
	own := owner(thread)
	for w := range c.tags {
		if t := &c.tags[w]; t.owner == own {
			t.owner = 0
			c.stats.Invalidations++
		}
	}
}

// LineInfo describes one valid line for occupancy inspection (Fig 8 and
// the structural tests).
type LineInfo struct {
	Set     int
	Way     int
	Thread  int
	Region  uint64
	Entry   uint8
	Seq     uint8
	Slots   int
	Uops    int
	Hotness int
}

// Snapshot returns all valid lines.
func (c *Cache) Snapshot() []LineInfo {
	var out []LineInfo
	for i, t := range c.tags {
		if t.owner == 0 {
			continue
		}
		l := &c.lines[i]
		out = append(out, LineInfo{
			Set: i / c.cfg.Ways, Way: i % c.cfg.Ways, Thread: int(t.owner) - 1,
			Region: c.keys[i] &^ c.regionMask, Entry: uint8(c.keys[i] & c.regionMask), Seq: t.seq,
			Slots: l.slots, Uops: len(l.uops), Hotness: l.hotness,
		})
	}
	return out
}

// OccupiedWays returns how many ways of physical set s are valid.
func (c *Cache) OccupiedWays(s int) int {
	n := 0
	for _, t := range c.tags[s*c.cfg.Ways : (s+1)*c.cfg.Ways] {
		if t.owner != 0 {
			n++
		}
	}
	return n
}

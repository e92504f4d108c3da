// Package cpu assembles the whole simulated core: two hardware threads
// (SMT contexts), each with a fetch engine and a backend, sharing the
// micro-op cache (per the configured partitioning policy), the cache
// hierarchy, and guest data memory. It exposes the host-facing API the
// characterization experiments and attacks drive: load a program, run a
// thread (or two threads simultaneously), and read timing and
// performance counters.
package cpu

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/backend"
	"deaduops/internal/bpu"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/uopcache"
)

// NumThreads is the number of SMT contexts per core.
const NumThreads = 2

// Mitigation selects a §VIII countermeasure against micro-op cache
// leakage.
type Mitigation int

const (
	// MitigationNone leaves the micro-op cache unprotected (baseline).
	MitigationNone Mitigation = iota
	// MitigationFlushOnPrivilegeSwitch flushes the entire micro-op
	// cache at every user↔kernel crossing (the iTLB-flush approach the
	// paper notes SGX already takes at enclave boundaries).
	MitigationFlushOnPrivilegeSwitch
	// MitigationPrivilegePartition statically partitions the cache
	// between user and kernel domains.
	MitigationPrivilegePartition
)

// String implements fmt.Stringer.
func (m Mitigation) String() string {
	switch m {
	case MitigationNone:
		return "none"
	case MitigationFlushOnPrivilegeSwitch:
		return "flush-on-switch"
	case MitigationPrivilegePartition:
		return "privilege-partition"
	default:
		return fmt.Sprintf("mitigation(%d)", int(m))
	}
}

// Config assembles a core configuration.
type Config struct {
	UopCache  uopcache.Config
	Hierarchy mem.HierarchyConfig
	Frontend  frontend.Config
	Backend   backend.Config
	BPU       bpu.Config
	// MemSize is the guest data memory size in bytes.
	MemSize int
	// KernelEntry is the SYSCALL target; guest images place kernel code
	// there.
	KernelEntry uint64
	// StackTop seeds each thread's R15. Thread 1 gets StackTop -
	// StackSpacing.
	StackTop     uint64
	StackSpacing uint64
	// Mitigation enables a §VIII countermeasure.
	Mitigation Mitigation
	// InvisibleSpeculation enables the §VII invisible-speculation
	// defense model: speculative loads defer their cache fills to
	// retirement.
	InvisibleSpeculation bool
	// DisableCycleSkip turns off the event-driven fast path that
	// advances the clock in one step over cycles in which every unit is
	// provably idle (stall countdowns, in-flight memory latency, drain
	// tails). The fast path is semantically invisible — cycle counts,
	// counters, and all measured timings are bit-identical either way
	// (TestSkipCyclesEquivalence) — so it defaults to on; disabling it
	// exists for equivalence testing and baseline benchmarks.
	DisableCycleSkip bool
}

// FromProfile assembles a core configuration for one registered
// front-end profile: the profile owns the DSB geometry and decode
// path, the core supplies everything frontend-agnostic (memory
// hierarchy, backend, BPU, guest memory layout).
func FromProfile(p profile.Profile) Config {
	return Config{
		UopCache:     p.UopCache,
		Frontend:     p.Frontend(),
		Hierarchy:    mem.DefaultHierarchy(),
		Backend:      backend.DefaultConfig(),
		BPU:          bpu.DefaultConfig(),
		MemSize:      1 << 22,
		KernelEntry:  0x40_0000,
		StackTop:     1 << 22,
		StackSpacing: 1 << 16,
	}
}

// Intel returns the default Skylake/Coffee Lake-like configuration the
// paper characterizes.
func Intel() Config { return FromProfile(profile.Skylake()) }

// AMD returns an AMD Zen-like configuration: competitively shared
// micro-op cache and 1:2 decoders.
func AMD() Config { return FromProfile(profile.Zen()) }

// IntelSunnyCove returns the Intel configuration with the 1.5×-larger
// Sunny Cove micro-op cache the paper mentions.
func IntelSunnyCove() Config { return FromProfile(profile.SunnyCove()) }

// AMDZen2 returns the AMD configuration with the 4K-µop Zen-2 op cache.
func AMDZen2() Config { return FromProfile(profile.Zen2()) }

// Memory is the guest data memory: a flat little-endian byte image.
// Out-of-image accesses read zero and drop writes (no faults are
// modelled; transient wild accesses are harmless).
type Memory struct {
	data []byte
	// dirty lists every 4 KiB page ever written, in first-write order;
	// isDirty is its membership index. Save/Restore copy only these
	// pages, keeping checkpoint cost proportional to the workload's
	// data footprint instead of the 4 MiB image.
	dirty   []int32
	isDirty []bool
}

// NewMemory allocates a guest memory image.
func NewMemory(size int) *Memory {
	return &Memory{data: make([]byte, size), isDirty: make([]bool, numPages(size))}
}

func numPages(size int) int {
	return (size + (1 << memPageShift) - 1) >> memPageShift
}

// Arena recycles the dominant allocations a core needs — the guest
// memory image (4 MiB at the default configuration) and the cache
// hierarchy (a 3 MiB LLC line array among its five levels) — across
// the sequence of CPUs one sweep worker builds. Both are handed back
// clean at a cost proportional to what the previous core touched, not
// to their size. An arena must never be shared between goroutines:
// parsweep gives each pool worker its own via its per-worker setup
// hook, so a 150-point sweep on 8 workers touches 8 images and 8
// hierarchies instead of 150. The zero value is ready to use, and a
// nil *Arena degrades to plain allocation.
type Arena struct {
	m *Memory
	// hier is the last core's hierarchy and pristine its state as
	// built: a core with the same HierarchyConfig gets hier back after
	// restoring pristine (see hierarchy).
	hier     *mem.Hierarchy
	pristine mem.HierarchyState
	// cks is the arena's pool of reusable checkpoint buffers: a sweep
	// worker that snapshots one primed core per point checkpoints into
	// the same backing arrays every time (see CheckpointBuf).
	cks []*Checkpoint
}

// CheckpointBuf returns the arena's i-th reusable checkpoint buffer,
// growing the pool on demand. Checkpoint buffers keep their backing
// arrays across points, so repeated Checkpoint calls into the same
// buffer are O(state-size) copies with no steady-state allocation. A
// nil arena degrades to a fresh buffer per call.
func (a *Arena) CheckpointBuf(i int) *Checkpoint {
	if a == nil {
		return &Checkpoint{}
	}
	for len(a.cks) <= i {
		a.cks = append(a.cks, &Checkpoint{})
	}
	return a.cks[i]
}

// memory returns a zeroed guest image of the requested size, reusing
// the arena's image when the size matches. Reuse leans on the dirty
// tracking: only pages the previous core wrote are re-zeroed, so
// recycling a 4 MiB image costs a few page clears, not a 4 MiB sweep.
func (a *Arena) memory(size int) *Memory {
	if a == nil {
		return NewMemory(size)
	}
	if a.m == nil || len(a.m.data) != size {
		a.m = NewMemory(size)
		return a.m
	}
	m := a.m
	for _, p := range m.dirty {
		buf := m.pageSlice(p)
		for i := range buf {
			buf[i] = 0
		}
		m.isDirty[p] = false
	}
	m.dirty = m.dirty[:0]
	return m
}

// hierarchy returns a cache hierarchy for cfg in its as-built state,
// reusing the arena's hierarchy when its configuration matches. The
// restore is the checkpoint path's sparse one: it clears only the sets
// the previous core filled and zeroes every clock and counter, so the
// result is indistinguishable from a new hierarchy. Hooks are not
// reset; NewWith installs the new core's own.
func (a *Arena) hierarchy(cfg mem.HierarchyConfig) *mem.Hierarchy {
	if a == nil {
		return mem.NewHierarchy(cfg)
	}
	if a.hier == nil || a.hier.Config() != cfg {
		a.hier = mem.NewHierarchy(cfg)
		a.hier.Save(&a.pristine)
		return a.hier
	}
	a.hier.Restore(&a.pristine)
	return a.hier
}

// memPageShift sizes the dirty-tracking granule (4 KiB pages). The
// guest image is MemSize bytes (4 MiB by default) but a workload
// writes a handful of pages; tracking which ones lets Save/Restore
// copy kilobytes instead of the whole image.
const memPageShift = 12

// markDirty records that [addr, addr+n) was written. Out-of-range
// bytes are ignored, mirroring Write's clamping.
func (m *Memory) markDirty(addr uint64, n int) {
	if n <= 0 || addr >= uint64(len(m.data)) {
		return
	}
	end := addr + uint64(n) - 1
	if end >= uint64(len(m.data)) {
		end = uint64(len(m.data)) - 1
	}
	for p := int32(addr >> memPageShift); p <= int32(end>>memPageShift); p++ {
		if !m.isDirty[p] {
			m.isDirty[p] = true
			m.dirty = append(m.dirty, p)
		}
	}
}

// Read implements backend.Memory.
func (m *Memory) Read(addr uint64, size int) int64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if a < uint64(len(m.data)) {
			v |= uint64(m.data[a]) << (8 * i)
		}
	}
	if size == 1 {
		return int64(uint8(v))
	}
	return int64(v)
}

// Write implements backend.Memory.
func (m *Memory) Write(addr uint64, size int, v int64) {
	m.markDirty(addr, size)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if a < uint64(len(m.data)) {
			m.data[a] = byte(v >> (8 * i))
		}
	}
}

// WriteBytes copies b into guest memory at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	m.markDirty(addr, len(b))
	copy(m.data[addr:], b)
}

// MemoryState is a sparse snapshot of the guest image: only
// ever-written pages are stored, so its cost scales with the
// workload's data footprint, not MemSize. Buffers are recycled across
// Save calls.
type MemoryState struct {
	size  int
	pages []int32
	data  []byte
}

// Save copies every dirty page into s, reusing s's buffers.
func (m *Memory) Save(s *MemoryState) {
	const page = 1 << memPageShift
	s.size = len(m.data)
	s.pages = append(s.pages[:0], m.dirty...)
	n := len(m.dirty) * page
	if cap(s.data) < n {
		s.data = make([]byte, n)
	}
	s.data = s.data[:n]
	for i, p := range m.dirty {
		copy(s.data[i*page:(i+1)*page], m.pageSlice(p))
	}
}

// Restore overwrites the guest image from s: pages dirtied since the
// snapshot but absent from it are zeroed, snapshot pages are copied
// back, and the dirty set becomes the snapshot's. O(dirty pages), not
// O(MemSize).
func (m *Memory) Restore(s *MemoryState) {
	const page = 1 << memPageShift
	for _, p := range m.dirty {
		buf := m.pageSlice(p)
		for i := range buf {
			buf[i] = 0
		}
		m.isDirty[p] = false
	}
	m.dirty = m.dirty[:0]
	for i, p := range s.pages {
		copy(m.pageSlice(p), s.data[i*page:(i+1)*page])
		m.isDirty[p] = true
		m.dirty = append(m.dirty, p)
	}
}

// pageSlice returns page p's bytes, clamped at the image end.
func (m *Memory) pageSlice(p int32) []byte {
	lo := int(p) << memPageShift
	hi := lo + 1<<memPageShift
	if hi > len(m.data) {
		hi = len(m.data)
	}
	return m.data[lo:hi]
}

// ReadBytes copies n bytes of guest memory at addr.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	copy(out, m.data[addr:])
	return out
}

// thread is one SMT context.
type thread struct {
	fe  *frontend.FrontEnd
	be  *backend.Backend
	bp  *bpu.BPU
	ctr *perfctr.Counters
}

// CPU is the simulated core.
type CPU struct {
	cfg     Config
	uc      *uopcache.Cache
	hier    *mem.Hierarchy
	mem     *Memory
	threads [NumThreads]*thread
	cycle   uint64
}

// New builds a core.
func New(cfg Config) *CPU { return NewWith(cfg, nil) }

// NewWith builds a core like New, drawing the guest memory image and
// the cache hierarchy from arena (which may be nil). The returned CPU
// owns the arena's buffers until the next NewWith call on the same
// arena, so at most one CPU per arena may be live at a time — exactly
// the shape of a sweep worker that builds, measures, and discards one
// core per point.
func NewWith(cfg Config, arena *Arena) *CPU {
	if cfg.Mitigation == MitigationPrivilegePartition {
		cfg.UopCache.PrivilegePartition = true
	}
	c := &CPU{
		cfg:  cfg,
		uc:   uopcache.New(cfg.UopCache),
		hier: arena.hierarchy(cfg.Hierarchy),
		mem:  arena.memory(cfg.MemSize),
	}
	// Inclusion hooks: an L1I eviction invalidates the matching
	// micro-op cache lines; an iTLB flush empties it.
	lineSize := uint64(cfg.Hierarchy.L1I.LineSize)
	c.hier.L1I().SetEvictHook(func(lineAddr uint64) {
		c.uc.InvalidateCodeLine(lineAddr, lineSize)
	})
	c.hier.SetITLBFlushHook(func() { c.uc.FlushAll() })

	for t := 0; t < NumThreads; t++ {
		ctr := &perfctr.Counters{}
		bp := bpu.New(cfg.BPU)
		fcfg := cfg.Frontend
		fcfg.KernelEntry = cfg.KernelEntry
		fe := frontend.New(fcfg, t, c.uc, c.hier, bp, ctr)
		bcfg := cfg.Backend
		bcfg.InvisibleSpeculation = cfg.InvisibleSpeculation
		bcfg.KernelEntry = cfg.KernelEntry
		bcfg.StackTop = cfg.StackTop - uint64(t)*cfg.StackSpacing
		be := backend.New(bcfg, fe, bp, c.hier, c.mem, ctr)
		switch cfg.Mitigation {
		case MitigationFlushOnPrivilegeSwitch:
			be.OnPrivilegeSwitch = func(bool) { c.uc.FlushAll() }
		case MitigationPrivilegePartition:
			tid := t
			be.OnPrivilegeSwitch = func(kernel bool) {
				d := 0
				if kernel {
					d = 1
				}
				c.uc.SetDomain(tid, d)
			}
		}
		c.threads[t] = &thread{fe: fe, be: be, bp: bp, ctr: ctr}
	}
	return c
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// UopCache exposes the micro-op cache for inspection and experiments.
func (c *CPU) UopCache() *uopcache.Cache { return c.uc }

// Hierarchy exposes the cache hierarchy.
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Mem exposes guest data memory.
func (c *CPU) Mem() *Memory { return c.mem }

// BPU returns thread t's branch predictors.
func (c *CPU) BPU(t int) *bpu.BPU { return c.threads[t].bp }

// Counters returns thread t's performance counters.
func (c *CPU) Counters(t int) *perfctr.Counters { return c.threads[t].ctr }

// Backend returns thread t's backend (register access for test setup).
func (c *CPU) Backend(t int) *backend.Backend { return c.threads[t].be }

// Cycle returns the global cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// LoadProgram installs the code image on both threads' fetch engines.
func (c *CPU) LoadProgram(p *asm.Program) {
	for _, t := range c.threads {
		t.fe.SetProgram(p)
	}
}

// SetReg sets an architectural register of thread t before a run.
func (c *CPU) SetReg(t int, r isa.Reg, v int64) { c.threads[t].be.SetReg(r, v) }

// Reg reads an architectural register of thread t.
func (c *CPU) Reg(t int, r isa.Reg) int64 { return c.threads[t].be.Reg(r) }

// RunResult summarizes one run.
type RunResult struct {
	Cycles   uint64
	Retired  uint64
	Counters perfctr.Snapshot
	// TimedOut reports the run hit maxCycles before HALT.
	TimedOut bool
}

// Run executes thread t from entry until it retires HALT or maxCycles
// elapse. The micro-op cache, caches, predictors, registers, and guest
// memory persist across runs — the attacks depend on that persistence.
// In single-thread runs the micro-op cache operates unpartitioned.
func (c *CPU) Run(t int, entry uint64, maxCycles uint64) RunResult {
	c.uc.SetSMTMode(false)
	th := c.threads[t]
	before := th.ctr.Snapshot()
	beforeRetired := th.be.Retired()
	th.be.Reset(entry)
	start := c.cycle
	skip := !c.cfg.DisableCycleSkip
	for !th.be.Halted() && c.cycle-start < maxCycles {
		c.cycle++
		th.ctr.Inc(perfctr.Cycles)
		th.fe.Tick()
		th.be.Tick(c.cycle)
		if !skip || th.be.Halted() {
			continue
		}
		// Event-driven fast path: when both units report the next k
		// cycles are provably dead (stall countdowns, waits on known
		// completion times, or idling that only the other unit can end),
		// advance the clock over them in one step. Each unit's bound
		// carries the proof that its skipped Ticks would have been
		// no-ops beyond deterministic counter effects, which ApplySkip
		// replays — so cycle counts and every counter are bit-identical
		// to the ticked execution. Single-thread runs only: SMT decoder
		// arbitration keys off absolute cycle parity (miteTurn), which a
		// jump would break.
		k := th.fe.SkipBound()
		if k > 0 {
			k = min(k, th.be.SkipBound(c.cycle))
		}
		if budget := maxCycles - (c.cycle - start); k > budget {
			// Idle past the run budget (possibly forever — a stuck
			// thread): fast-forward straight to the timeout.
			k = budget
		}
		if k == 0 {
			continue
		}
		c.cycle += k
		th.ctr.Add(perfctr.Cycles, k)
		th.ctr.Add(perfctr.SkippedCycles, k)
		th.fe.ApplySkip(k)
	}
	return RunResult{
		Cycles:   c.cycle - start,
		Retired:  th.be.Retired() - beforeRetired,
		Counters: th.ctr.Snapshot().Delta(before),
		TimedOut: !th.be.Halted(),
	}
}

// RunSMT executes both threads simultaneously from their entries until
// each retires HALT (a finished thread idles while the other runs) or
// maxCycles elapse. Under Intel's policy the micro-op cache is
// statically partitioned for the duration; under AMD's it is
// competitively shared. The shared decoders are modelled by
// alternating MITE access between threads cycle by cycle.
func (c *CPU) RunSMT(entryA, entryB uint64, maxCycles uint64) [NumThreads]RunResult {
	return c.runSMT(entryA, entryB, maxCycles, false)
}

// RunSMTPrimary is RunSMT, but the run ends as soon as thread 0 retires
// HALT — thread 1 acts as a background workload (the Fig 6/7 co-runner
// setups, where the sibling spins on PAUSE or pointer chasing for the
// duration of the measured thread).
func (c *CPU) RunSMTPrimary(entryA, entryB uint64, maxCycles uint64) [NumThreads]RunResult {
	return c.runSMT(entryA, entryB, maxCycles, true)
}

func (c *CPU) runSMT(entryA, entryB uint64, maxCycles uint64, stopOnPrimary bool) [NumThreads]RunResult {
	c.uc.SetSMTMode(true)
	var before [NumThreads]perfctr.Snapshot
	var beforeRet [NumThreads]uint64
	entries := [NumThreads]uint64{entryA, entryB}
	for t, th := range c.threads {
		before[t] = th.ctr.Snapshot()
		beforeRet[t] = th.be.Retired()
		th.be.Reset(entries[t])
	}
	start := c.cycle
	var startCycle, endCycle [NumThreads]uint64
	for t := range startCycle {
		startCycle[t] = c.cycle
	}
	for c.cycle-start < maxCycles {
		if c.threads[0].be.Halted() && (stopOnPrimary || c.threads[1].be.Halted()) {
			break
		}
		c.cycle++
		for t, th := range c.threads {
			if th.be.Halted() {
				continue
			}
			th.ctr.Inc(perfctr.Cycles)
			// Decoders are shared between SMT threads: only one thread
			// may occupy the legacy decode pipeline per cycle.
			if c.miteTurn(t) {
				th.fe.Tick()
			} else if !c.inMITE(t) {
				th.fe.Tick()
			}
			th.be.Tick(c.cycle)
			if th.be.Halted() {
				endCycle[t] = c.cycle
			}
		}
	}
	var out [NumThreads]RunResult
	for t, th := range c.threads {
		end := endCycle[t]
		if end == 0 {
			end = c.cycle
		}
		out[t] = RunResult{
			Cycles:   end - startCycle[t],
			Retired:  th.be.Retired() - beforeRet[t],
			Counters: th.ctr.Snapshot().Delta(before[t]),
			TimedOut: !th.be.Halted(),
		}
	}
	c.uc.SetSMTMode(false)
	return out
}

// miteTurn reports whether thread t owns the shared decoders this
// cycle.
func (c *CPU) miteTurn(t int) bool { return int(c.cycle)&1 == t }

// inMITE reports whether thread t's fetch engine is currently decoding
// through the legacy pipeline.
func (c *CPU) inMITE(t int) bool { return c.threads[t].fe.InMITE() }

// FlushUopCache empties the micro-op cache (mitigation experiments).
func (c *CPU) FlushUopCache() { c.uc.FlushAll() }

// String summarizes the core configuration.
func (c *CPU) String() string {
	uc := c.cfg.UopCache
	return fmt.Sprintf("cpu{uopcache %d sets × %d ways × %d µops (%s)}",
		uc.Sets, uc.Ways, uc.SlotsPerLine, uc.SMT)
}

// Package frontend models the fetch engine of one hardware thread: the
// branch-prediction-driven next-fetch logic, the micro-op cache (DSB)
// streaming path, the legacy decode (MITE) path with its switch
// penalty, and the instruction decode queue (IDQ) feeding the backend.
//
// The security-relevant contract implemented here: fetch follows
// *predicted* control flow and fills the micro-op cache as it decodes —
// including along paths that are later squashed. Squash resets fetch
// state but never rolls back micro-op cache contents.
package frontend

import (
	"deaduops/internal/asm"
	"deaduops/internal/bpu"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"
)

// Config parameterizes the fetch engine.
type Config struct {
	IDQCapacity int
	Decode      decode.Config
	// KernelEntry is the architectural SYSCALL target.
	KernelEntry uint64
	// LSDCapacity enables the loop stream detector when nonzero: loops
	// of at most this many µops lock into the IDQ and replay without
	// touching the micro-op cache (§II-C). Zero disables it — the
	// modelled Skylake ships with the LSD fused off (erratum SKL150),
	// which is why the paper never needed to defeat it.
	LSDCapacity int
}

// DefaultConfig returns a Skylake-like front end (LSD disabled, per
// erratum SKL150).
func DefaultConfig() Config {
	return Config{IDQCapacity: 64, Decode: decode.Skylake()}
}

// Costs returns the shared front-end delivery cost table for this
// configuration over u's micro-op cache geometry. The fetch engine
// charges its DSB→MITE switch penalty through this table, and the
// static leakage quantifier (internal/staticlint) prices paths with
// the same table — one source of truth for every cost constant.
func (c Config) Costs(u uopcache.Config) decode.CostTable {
	return decode.NewCostTable(c.Decode, u)
}

// lsdRec is one fetch group retained for loop detection.
type lsdRec struct {
	entry uint64
	uops  []isa.Uop
}

// mode is the active µop delivery path.
type mode int

const (
	modeDSB mode = iota
	modeMITE
)

// FrontEnd is one hardware thread's fetch engine.
type FrontEnd struct {
	cfg    Config
	costs  decode.CostTable
	thread int
	prog   *asm.Program
	uc     *uopcache.Cache
	hier   *mem.Hierarchy
	bp     *bpu.BPU
	ctr    *perfctr.Counters

	pc        uint64
	active    bool // fetch enabled (false: stalled on fault/halt/serialize)
	serialize bool // CPUID in flight: fetch stops until it retires
	// stallPen counts down DSB-miss-attributed stalls (switch penalty);
	// stallOther counts down unattributed stalls (icache miss fill,
	// misprediction redirect bubble).
	stallPen   int
	stallOther int
	m          mode

	// pending delivery state
	pendingUops   []isa.Uop          // DSB stream awaiting IDQ slots
	pendingGroup  *fetchGroup        // fetch-control applied once the stream drains
	plan          *decode.RegionPlan // MITE schedule in progress
	planTrace     *uopcache.Trace    // the plan's µop cache fill
	planIdx       int
	planGroup     *fetchGroup // group being decoded by MITE (for fill)
	planDelivered []isa.Uop   // µops delivered so far from the plan (LSD recording only)
	sysRet        []uint64    // syscall return-address stack (architectural)

	// LSD (loop stream detector) state: recently delivered groups and,
	// when a loop locks, the replaying µop ring.
	lsdLog    []lsdRec
	lsdLoop   []isa.Uop
	lsdIdx    int
	lsdActive bool

	// idq is the instruction decode queue: a window into idqBuf, which
	// holds twice IDQCapacity µops. The backend consumes from the front
	// (Peek/Discard) and Tick appends at the back, sliding the window to
	// the buffer's start only when it runs out of tail room, so neither
	// end shifts the queue every cycle.
	idq    []isa.Uop
	idqBuf []isa.Uop

	// group is the one reusable fetch-group buffer: at most one fetch
	// group is ever live (either pendingGroup on the DSB path or
	// planGroup on the MITE path, never both), so planFetch rebuilds
	// this struct in place instead of allocating per fetch.
	group fetchGroup
	// streamBuf is the reusable DSB stream buffer LookupAppend fills;
	// pendingUops slices into it. It is safe to reuse because startFetch
	// only runs once the previous stream has fully drained into the IDQ
	// (and lsdRecord copies anything it retains).
	streamBuf []isa.Uop

	// memo is the per-entry fetch memo (see entryMemo), keyed by fetch
	// entry PC. It is derived from the program alone, so it is not
	// core state: SetProgram clears it when the program changes, and
	// checkpoints neither save nor clear it. memoFront is a
	// direct-mapped, PC-tagged cache of memo consulted before the map.
	memo      map[uint64]*entryMemo
	memoFront [1 << memoFrontBits]memoSlot

	// Fixed configuration values the per-fetch path reads, hoisted out
	// of the (large, value-returned) configuration structs.
	regionMask  uint64 // µop cache region size − 1
	streamWidth int    // DSB delivery µops per cycle
	l1iLat      int    // L1I hit latency
}

// memoFrontBits sizes memoFront: 1<<memoFrontBits direct-mapped slots.
const memoFrontBits = 10

// memoSlot is one memoFront slot; m is nil when the slot is empty.
type memoSlot struct {
	pc uint64
	m  *entryMemo
}

// entryMemo is everything about fetching from one entry PC that is a
// pure function of the immutable program bytes and the fixed decode
// and µop cache configurations, built on the entry's first visit and
// shared read-only by every later fetch from there.
type entryMemo struct {
	// run holds the instructions from the entry to the first of: the
	// region end, an unmapped byte, or an instruction that always ends
	// a fetch group (see endsGroup). end is the address one past run
	// (the unmapped address when an unmapped byte cut it short). An
	// empty run means the entry itself is unmapped.
	run []*isa.Inst
	end uint64
	// decoded[n-1] holds the MITE schedule and µop cache trace of the
	// group run[:n], built on the first DSB miss that fetches exactly
	// that group (a predicted-taken JCC can cut a group short of run).
	decoded []groupDecode
}

// groupDecode is one fetch group's legacy decode: the MITE schedule
// and the trace the µop cache is filled with once it completes. Both
// are read-only once built: tickMITE copies each µop before annotating
// it, and uopcache.Fill keeps only references to the trace's µops.
type groupDecode struct {
	plan  *decode.RegionPlan
	trace *uopcache.Trace
}

// endsGroup reports whether op always ends a fetch group, whatever the
// predictors say.
func endsGroup(op isa.Op) bool {
	switch op {
	case isa.HALT, isa.CPUID, isa.JMP, isa.CALL, isa.JMPI, isa.CALLI,
		isa.RET, isa.SYSCALL, isa.SYSRET:
		return true
	}
	return false
}

// New builds a fetch engine for one hardware thread.
func New(cfg Config, thread int, uc *uopcache.Cache, hier *mem.Hierarchy, bp *bpu.BPU, ctr *perfctr.Counters) *FrontEnd {
	ucfg := uc.Config()
	return &FrontEnd{
		cfg:    cfg,
		costs:  cfg.Costs(ucfg),
		thread: thread,
		uc:     uc,
		hier:   hier,
		bp:     bp,
		ctr:    ctr,
		// Pre-size the IDQ and the DSB stream buffer so the steady-state
		// cycle loop never grows either: the IDQ is hard-capped at
		// IDQCapacity, and one region streams at most
		// MaxLinesPerRegion × SlotsPerLine micro-ops.
		idqBuf:      make([]isa.Uop, 2*cfg.IDQCapacity),
		streamBuf:   make([]isa.Uop, 0, ucfg.MaxLinesPerRegion*ucfg.SlotsPerLine),
		memo:        make(map[uint64]*entryMemo),
		regionMask:  ucfg.RegionSize() - 1,
		streamWidth: ucfg.StreamWidth,
		l1iLat:      hier.Config().L1I.Latency,
	}
}

// SetProgram installs the code image. Installing a different program
// clears the fetch memo; reinstalling the same one keeps it warm, since
// a program is immutable once built.
func (f *FrontEnd) SetProgram(p *asm.Program) {
	if p != f.prog {
		clear(f.memo)
		clear(f.memoFront[:])
	}
	f.prog = p
}

// Program returns the installed code image (checkpointing).
func (f *FrontEnd) Program() *asm.Program { return f.prog }

// Redirect restarts fetch at pc, discarding all pending fetch state.
// The backend calls this at misprediction recovery and at thread start.
func (f *FrontEnd) Redirect(pc uint64) {
	f.pc = pc
	f.active = true
	f.serialize = false
	f.stallPen = 0
	f.stallOther = 0
	f.m = modeDSB
	f.pendingUops = nil
	f.pendingGroup = nil
	f.plan = nil
	f.planTrace = nil
	f.planIdx = 0
	f.planGroup = nil
	f.planDelivered = f.planDelivered[:0]
	f.lsdLog = f.lsdLog[:0]
	f.lsdLoop = nil
	f.lsdIdx = 0
	f.lsdActive = false
	f.idq = f.idqBuf[:0]
}

// Stop halts fetch (thread finished).
func (f *FrontEnd) Stop() { f.active = false }

// AddStall inserts redirect-bubble cycles not attributed to micro-op
// cache misses.
func (f *FrontEnd) AddStall(n int) { f.stallOther += n }

// SerializeDone is signalled by the backend when a fetch-serializing
// instruction (CPUID) retires; fetch resumes at the next address.
func (f *FrontEnd) SerializeDone(resume uint64) {
	f.serialize = false
	f.active = true
	f.pc = resume
	f.pendingUops = nil
	f.pendingGroup = nil
	f.plan = nil
	f.planTrace = nil
	f.planGroup = nil
	f.planDelivered = f.planDelivered[:0]
	f.m = modeDSB
}

// InMITE reports whether the legacy decode pipeline is active (used to
// arbitrate the shared decoders between SMT threads).
func (f *FrontEnd) InMITE() bool { return f.m == modeMITE && f.plan != nil }

// IDQLen returns the number of micro-ops buffered for the backend.
func (f *FrontEnd) IDQLen() int { return len(f.idq) }

// Peek returns the IDQ's micro-ops, oldest first. The slice aliases the
// queue: it is valid only until the next Tick, Discard or Redirect,
// and the caller must not modify it. Rename copies each µop straight
// out of it, then consumes them with Discard.
func (f *FrontEnd) Peek() []isa.Uop { return f.idq }

// Discard removes the n oldest micro-ops from the IDQ; n must not
// exceed IDQLen.
func (f *FrontEnd) Discard(n int) { f.idq = f.idq[n:] }

// fetchGroup is one fetch unit of work: the static macro-ops from the
// entry point to the region end or the first control-flow redirect the
// predictor follows.
type fetchGroup struct {
	// insts is a prefix of memo.run.
	insts []*isa.Inst
	memo  *entryMemo
	entry uint64
	// next is where fetch continues after the group.
	next uint64
	// preds records branch-End()-address → predicted (taken, target);
	// consumed when annotating delivered branch micro-ops. A slice, not
	// a map: instruction addresses strictly increase inside a group so
	// entries are unique, groups hold only a handful of branches, and
	// the backing array is reused across fetches.
	preds []predRec
	// halt: group contains HALT — fetch stops after delivery.
	// serialize: group contains CPUID — fetch stops until retire.
	halt      bool
	serialize bool
	// fault: entry address is unmapped; no micro-ops can be delivered.
	fault bool
}

type predOut struct {
	taken  bool
	target uint64
	valid  bool // predictor produced a target (indirect may not)
}

// predRec is one recorded branch prediction, keyed by the branch's
// End() address.
type predRec struct {
	end uint64
	p   predOut
}

// setPred records a prediction for the branch ending at end.
func (g *fetchGroup) setPred(end uint64, p predOut) {
	g.preds = append(g.preds, predRec{end: end, p: p})
}

// planFetch walks the memoized static run from pc, consulting the
// predictors, and returns the fetch group. The group never crosses a
// region boundary (micro-op cache traces are per-region) and ends early
// at the first branch the predictor follows.
func (f *FrontEnd) planFetch(pc uint64) *fetchGroup {
	// Reuse the embedded group: at most one fetch group is live at a
	// time (startFetch only runs once the previous group has fully
	// delivered and finished), so rebuilding in place is safe.
	g := &f.group
	m := f.memoFor(pc)
	g.memo = m
	g.insts = m.run
	g.preds = g.preds[:0]
	g.entry = pc
	g.next = m.end
	g.halt, g.serialize = false, false
	g.fault = len(m.run) == 0
	for i, in := range m.run {
		switch in.Op {
		case isa.HALT:
			g.halt = true
		case isa.CPUID:
			g.serialize = true
		case isa.JMP:
			g.setPred(in.End(), predOut{taken: true, target: uint64(in.Imm), valid: true})
			g.next = uint64(in.Imm)
		case isa.CALL:
			f.bp.PushRSB(in.End())
			g.setPred(in.End(), predOut{taken: true, target: uint64(in.Imm), valid: true})
			g.next = uint64(in.Imm)
		case isa.JCC:
			taken := f.bp.PredictDirection(in.Addr)
			g.setPred(in.End(), predOut{taken: taken, target: uint64(in.Imm), valid: true})
			if taken {
				g.insts = m.run[:i+1]
				g.next = uint64(in.Imm)
				return g
			}
		case isa.JMPI, isa.CALLI:
			t, ok := f.bp.PredictIndirect(in.Addr)
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			if in.Op == isa.CALLI {
				f.bp.PushRSB(in.End())
			}
			g.next = t
			if !ok {
				// No prediction: fetch stalls until the branch
				// resolves and redirects.
				g.next = 0
			}
		case isa.RET:
			t, ok := f.bp.PopRSB()
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			g.next = t
			if !ok {
				g.next = 0
			}
		case isa.SYSCALL:
			g.setPred(in.End(), predOut{taken: true, target: f.cfg.KernelEntry, valid: true})
			f.sysRet = append(f.sysRet, in.End())
			g.next = f.cfg.KernelEntry
		case isa.SYSRET:
			t, ok := f.predictSysret()
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			g.next = t
			if !ok {
				g.next = 0
			}
		}
	}
	return g
}

// memoFor returns the memo for fetch entry pc, walking the program on
// the entry's first visit.
func (f *FrontEnd) memoFor(pc uint64) *entryMemo {
	// Fibonacci hashing: the experiments place code at strides of the
	// µop cache's set span, so the low PC bits alone would collide.
	slot := &f.memoFront[(pc*0x9E3779B97F4A7C15)>>(64-memoFrontBits)]
	if slot.m != nil && slot.pc == pc {
		return slot.m
	}
	if m := f.memo[pc]; m != nil {
		*slot = memoSlot{pc, m}
		return m
	}
	m := &entryMemo{}
	regionEnd := pc&^f.regionMask + f.regionMask + 1
	cur := pc
	for cur < regionEnd {
		in := f.prog.At(cur)
		if in == nil {
			break
		}
		m.run = append(m.run, in)
		cur = in.End()
		if endsGroup(in.Op) {
			break
		}
	}
	m.end = cur
	f.memo[pc] = m
	*slot = memoSlot{pc, m}
	return m
}

// decodeGroup returns g's MITE schedule and µop cache trace, building
// them on the first DSB miss for this exact group.
func (f *FrontEnd) decodeGroup(g *fetchGroup) *groupDecode {
	m := g.memo
	if m.decoded == nil {
		m.decoded = make([]groupDecode, len(m.run))
	}
	d := &m.decoded[len(g.insts)-1]
	if d.plan == nil {
		d.plan = decode.PlanRegion(f.cfg.Decode, g.insts)
		region := g.entry &^ f.regionMask
		d.trace = uopcache.BuildTrace(f.uc.Config(), region, uint8(g.entry-region), d.plan.Macros)
	}
	return d
}

func (f *FrontEnd) predictSysret() (uint64, bool) {
	if n := len(f.sysRet); n > 0 {
		t := f.sysRet[n-1]
		f.sysRet = f.sysRet[:n-1]
		return t, true
	}
	return 0, false
}

// annotate attaches the group's branch predictions to a delivered
// micro-op.
func (g *fetchGroup) annotate(u *isa.Uop) {
	if !u.IsBranch() {
		return
	}
	end := u.MacroAddr + uint64(u.MacroLen)
	for i := range g.preds {
		if g.preds[i].end == end {
			p := g.preds[i].p
			u.PredTaken = p.taken
			if p.valid {
				u.PredTarget = p.target
			}
			return
		}
	}
}

// groupEnd returns the address one past the last instruction.
func (g *fetchGroup) groupEnd() uint64 {
	if len(g.insts) == 0 {
		return g.entry
	}
	last := g.insts[len(g.insts)-1]
	return last.End()
}

// Tick advances the fetch engine one cycle, delivering micro-ops into
// the IDQ.
func (f *FrontEnd) Tick() {
	if !f.active || f.serialize {
		return
	}
	if f.stallOther > 0 {
		f.stallOther--
		return
	}
	if f.stallPen > 0 {
		f.stallPen--
		f.ctr.Inc(perfctr.DSBMissPenaltyCycles)
		return
	}
	room := f.cfg.IDQCapacity - len(f.idq)
	if room <= 0 {
		return
	}
	if cap(f.idq)-len(f.idq) < room {
		// Out of tail room: slide the queue to the buffer's start, which
		// leaves at least IDQCapacity free slots behind it.
		f.idq = f.idqBuf[:copy(f.idqBuf, f.idq)]
	}

	if f.lsdActive {
		f.tickLSD(room)
		return
	}
	switch f.m {
	case modeDSB:
		f.tickDSB(room)
	case modeMITE:
		f.tickMITE(room)
	}
}

// SkipBound returns how many upcoming cycles of Tick are provably
// dead — pure stall countdowns or no-ops — so the core's event-driven
// fast path can advance the clock over them in one step. ^uint64(0)
// means "idle until some other unit acts" (fetch stopped, serialized,
// or blocked on a full IDQ that only the backend can drain); 0 means
// the next Tick may deliver micro-ops or start a fetch and must run
// for real. Note the DSB→MITE switch itself is never skippable: the
// switch is charged inside startFetch, which SkipBound reports as 0 —
// only the already-charged penalty countdown is fast-forwarded.
func (f *FrontEnd) SkipBound() uint64 {
	if !f.active || f.serialize {
		return ^uint64(0)
	}
	if n := f.stallOther + f.stallPen; n > 0 {
		return uint64(n)
	}
	if f.cfg.IDQCapacity-len(f.idq) <= 0 {
		return ^uint64(0)
	}
	return 0
}

// ApplySkip replays the counter effects of k skipped cycles, which
// must not exceed the last SkipBound: unattributed stalls drain
// silently first (exactly as Tick would), then DSB-miss-penalty
// stalls drain charging DSBMissPenaltyCycles each, and any remainder
// was pure idling (inactive / serialized / IDQ full) with no effect.
func (f *FrontEnd) ApplySkip(k uint64) {
	n := int(k)
	if f.stallOther > 0 {
		take := f.stallOther
		if take > n {
			take = n
		}
		f.stallOther -= take
		n -= take
	}
	if n > 0 && f.stallPen > 0 {
		take := f.stallPen
		if take > n {
			take = n
		}
		f.stallPen -= take
		n -= take
		f.ctr.Add(perfctr.DSBMissPenaltyCycles, uint64(take))
	}
}

// State is the part of a fetch engine that persists across runs: the
// backend's Reset → Redirect at every run start discards all pending
// fetch state, so the architectural syscall return-address stack is
// the only field a between-runs checkpoint must carry.
type State struct {
	SysRet []uint64
}

// Save deep-copies the persistent fetch state into s, reusing s's
// buffers.
func (f *FrontEnd) Save(s *State) {
	s.SysRet = append(s.SysRet[:0], f.sysRet...)
}

// Restore rehydrates the persistent fetch state from s and parks the
// engine in the quiescent between-runs position (fetch stopped until
// the next Reset redirects it).
func (f *FrontEnd) Restore(s *State) {
	f.Redirect(0)
	f.active = false
	f.sysRet = append(f.sysRet[:0], s.SysRet...)
}

// tickLSD replays the locked loop out of the IDQ, bypassing both the
// micro-op cache and the decoders. Exit happens when the loop's
// closing branch resolves against its recorded prediction and the
// backend redirects fetch.
func (f *FrontEnd) tickLSD(room int) {
	n := f.streamWidth
	if n > room {
		n = room
	}
	for i := 0; i < n; i++ {
		f.idq = append(f.idq, f.lsdLoop[f.lsdIdx])
		f.lsdIdx = (f.lsdIdx + 1) % len(f.lsdLoop)
	}
	f.ctr.Add(perfctr.LSDUops, uint64(n))
}

// lsdCheck looks for a loop ending at entry in the recorded groups and
// locks it if it fits the LSD. It reports whether the LSD took over.
func (f *FrontEnd) lsdCheck(entry uint64) bool {
	if f.cfg.LSDCapacity <= 0 {
		return false
	}
	for i := range f.lsdLog {
		if f.lsdLog[i].entry != entry {
			continue
		}
		total := 0
		for _, r := range f.lsdLog[i:] {
			total += len(r.uops)
		}
		if total == 0 || total > f.cfg.LSDCapacity {
			return false
		}
		loop := make([]isa.Uop, 0, total)
		for _, r := range f.lsdLog[i:] {
			loop = append(loop, r.uops...)
		}
		f.lsdLoop = loop
		f.lsdIdx = 0
		f.lsdActive = true
		return true
	}
	return false
}

// lsdRecord retains a delivered group for loop detection.
func (f *FrontEnd) lsdRecord(entry uint64, uops []isa.Uop) {
	if f.cfg.LSDCapacity <= 0 || f.lsdActive {
		return
	}
	const maxLog = 16
	// Copy: the caller's slice aliases a reusable delivery buffer
	// (streamBuf on the DSB path) that the next fetch overwrites.
	f.lsdLog = append(f.lsdLog, lsdRec{entry: entry, uops: append([]isa.Uop(nil), uops...)})
	if len(f.lsdLog) > maxLog {
		f.lsdLog = f.lsdLog[len(f.lsdLog)-maxLog:]
	}
}

// tickDSB pushes pending DSB micro-ops up to the stream width. A
// group's fetch-control (redirect target, HALT, CPUID serialization)
// applies only after its last micro-op has been delivered.
func (f *FrontEnd) tickDSB(room int) {
	if len(f.pendingUops) == 0 {
		if g := f.pendingGroup; g != nil {
			f.pendingGroup = nil
			f.finishGroup(g)
			if !f.active || f.serialize {
				return
			}
		}
		if !f.startFetch() {
			return
		}
	}
	if len(f.pendingUops) == 0 {
		return
	}
	n := f.streamWidth
	if n > room {
		n = room
	}
	if n > len(f.pendingUops) {
		n = len(f.pendingUops)
	}
	f.idq = append(f.idq, f.pendingUops[:n]...)
	f.ctr.Add(perfctr.DSBUops, uint64(n))
	f.pendingUops = f.pendingUops[n:]
	if len(f.pendingUops) == 0 {
		if g := f.pendingGroup; g != nil {
			f.pendingGroup = nil
			f.finishGroup(g)
		}
	}
}

// tickMITE advances the legacy-decode schedule by one cycle.
func (f *FrontEnd) tickMITE(room int) {
	if f.plan == nil && !f.startFetch() {
		return
	}
	if f.plan == nil {
		return
	}
	if f.planIdx < len(f.plan.Slots) {
		slot := f.plan.Slots[f.planIdx]
		if len(slot) > room {
			// IDQ backpressure: retry this slot next cycle.
			return
		}
		f.planIdx++
		if len(slot) == 0 {
			f.ctr.Inc(perfctr.DSBMissPenaltyCycles)
			return
		}
		for i := range slot {
			u := slot[i]
			f.planGroup.annotate(&u)
			f.idq = append(f.idq, u)
			if f.cfg.LSDCapacity > 0 {
				f.planDelivered = append(f.planDelivered, u)
			}
			if u.FromMSROM {
				f.ctr.Inc(perfctr.MSROMUops)
			} else {
				f.ctr.Inc(perfctr.MITEUops)
			}
		}
		if f.planIdx < len(f.plan.Slots) {
			return
		}
	}
	// Plan complete: fill the micro-op cache with the decoded trace
	// and finish the group.
	g := f.planGroup
	f.uc.Fill(f.thread, f.planTrace)
	f.ctr.Add(perfctr.LCPStallCycles, uint64(f.plan.LCPStalls))
	f.ctr.Add(perfctr.JccAlignStallCycles, uint64(f.plan.AlignStalls))
	f.lsdRecord(g.entry, f.planDelivered)
	f.plan = nil
	f.planTrace = nil
	f.planIdx = 0
	f.planGroup = nil
	f.planDelivered = f.planDelivered[:0]
	f.finishGroup(g)
	// Return to the DSB path; the next fetch probes the cache again.
	f.m = modeDSB
}

// finishGroup applies the group's post-delivery fetch control.
func (f *FrontEnd) finishGroup(g *fetchGroup) {
	switch {
	case g.halt:
		f.active = false
	case g.serialize:
		f.serialize = true
	case g.next == 0 && len(g.preds) > 0:
		// Unpredicted indirect: stall until backend redirect.
		f.active = false
	default:
		f.pc = g.next
	}
}

// startFetch plans the next fetch group and primes either the DSB
// stream or a MITE plan. It reports whether any work was started.
func (f *FrontEnd) startFetch() bool {
	if f.lsdCheck(f.pc) {
		// The loop stream detector locked a loop ending here: delivery
		// now bypasses both the µop cache and the decoders.
		return true
	}
	g := f.planFetch(f.pc)
	if g.fault {
		// Unmapped fetch target (e.g. wild transient target): stall
		// until redirected.
		f.active = false
		return false
	}

	// Instruction-cache access for the group's bytes. A miss costs the
	// fill latency up front.
	lat := f.hier.AccessInst(g.entry)
	if lat > f.l1iLat {
		f.stallOther += lat - f.l1iLat
		f.ctr.Inc(perfctr.L1IMisses)
	}

	if uops, hit := f.uc.LookupAppend(f.thread, g.entry, f.streamBuf[:0]); hit {
		f.streamBuf = uops[:0] // keep the (possibly grown) backing array
		if covered := f.coverage(uops); covered >= g.groupEnd() {
			stream := f.truncateToGroup(uops, g)
			for i := range stream {
				g.annotate(&stream[i])
			}
			f.lsdRecord(g.entry, stream)
			f.pendingUops = stream
			f.pendingGroup = g
			f.m = modeDSB
			if len(stream) == 0 {
				f.pendingGroup = nil
				f.finishGroup(g)
			}
			return true
		}
		// Trace exists but does not cover this (longer) fetch group —
		// e.g. it was built under a different predicted direction.
		// Treat as a miss and rebuild.
	}

	// DSB miss: the switch penalty from the shared cost table, then
	// the (memoized) MITE schedule.
	f.ctr.Inc(perfctr.DSB2MITESwitches)
	f.stallPen += f.costs.SwitchPenalty()
	d := f.decodeGroup(g)
	f.plan, f.planTrace = d.plan, d.trace
	f.planIdx = 0
	f.planGroup = g
	f.m = modeMITE
	return true
}

// coverage returns the address one past the last macro-op the trace
// micro-ops cover.
func (f *FrontEnd) coverage(uops []isa.Uop) uint64 {
	if len(uops) == 0 {
		return 0
	}
	last := uops[len(uops)-1]
	return last.MacroAddr + uint64(last.MacroLen)
}

// truncateToGroup cuts a cached trace down to the fetch group's extent
// (the group may end early at a predicted-taken branch). The trace
// lives in the front end's own stream buffer, so truncation is a
// re-slice, not a copy.
func (f *FrontEnd) truncateToGroup(uops []isa.Uop, g *fetchGroup) []isa.Uop {
	end := g.groupEnd()
	for i := range uops {
		if uops[i].MacroAddr >= end {
			return uops[:i]
		}
	}
	return uops
}

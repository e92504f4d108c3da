// Package backend models a simplified out-of-order execution engine:
// register renaming via dataflow dependencies, latency-accurate loads
// against the cache hierarchy, in-order retirement, branch resolution
// with squash, and the fence semantics the transient-execution attacks
// probe — LFENCE blocks issue of younger micro-ops but not fetch, while
// CPUID serializes fetch itself.
package backend

import (
	"fmt"
	"math/bits"

	"deaduops/internal/bpu"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
)

// Memory is the guest data memory the backend loads from and stores to.
type Memory interface {
	Read(addr uint64, size int) int64
	Write(addr uint64, size int, v int64)
}

// Config parameterizes the backend.
type Config struct {
	ROBSize       int // at most 512 (robPositions)
	DispatchWidth int // µops renamed/allocated per cycle
	RetireWidth   int // µops retired per cycle
	ExecPorts     int // µops issued to execution per cycle
	// MispredictPenalty is the fixed redirect bubble on a squash, on
	// top of the natural refetch latency.
	MispredictPenalty int
	// InvisibleSpeculation models the §VII invisible-speculation
	// defenses (InvisiSpec, SafeSpec, …): speculative loads read their
	// value without updating the cache hierarchy; the fill happens only
	// at retirement. Squashed loads therefore leave no data-cache
	// footprint — which kills classic Spectre-v1's disclosure primitive
	// but, as the paper shows, not the micro-op cache's.
	InvisibleSpeculation bool
	// KernelEntry is the SYSCALL target address.
	KernelEntry uint64
	// StackTop initializes R15 (the modelled stack pointer).
	StackTop uint64
}

// DefaultConfig returns a Skylake-like backend.
func DefaultConfig() Config {
	return Config{
		ROBSize:           224,
		DispatchWidth:     4,
		RetireWidth:       4,
		ExecPorts:         8,
		MispredictPenalty: 5,
	}
}

// entry is one in-flight micro-op. Entries live in place in the
// backend's ROB ring, at position seq mod robPositions, from dispatch
// until retirement or a squash; the position is free again at once, as
// no consumer reads a producer after it completes (completion pushes
// the result). An entry holds no pointers, so the ring is never
// scanned by the garbage collector and resetting a position needs no
// write barriers.
type entry struct {
	uop isa.Uop
	// seq is the entry's allocation number, increasing in dispatch
	// order along the ROB; a squash rewinds it to just past the branch.
	// Its ROB position, seq mod robPositions, indexes the ring and the
	// worklist sets.
	seq uint64

	// Source operand values: v1 and v2 for the register sources, vc
	// for the chained value of the macro-op's previous micro-op (RET's
	// popped return address), inFlags for a flags consumer. Each is
	// taken at dispatch from the register file or a completed producer,
	// or pushed in by the producer when it completes.
	v1, v2, vc int64

	readyAt uint64 // cycle the result becomes available

	// results
	val     int64
	memAddr uint64
	target  uint64 // branch target

	// consumers heads the list of operands waiting on this entry's
	// result, youngest first; next[op] links the list this entry's own
	// operand op waits on. Completion pushes the result into each
	// operand on the list and empties it.
	consumers wakeup
	next      [4]wakeup
	// wnext links the timing-wheel bucket (or the far list) the entry
	// waits on while issued and not yet due: the position+1 of the next
	// entry, 0 at the end.
	wnext int32

	inFlags  isa.Flags
	outFlags isa.Flags
	// dst is the register the µop writes (NoReg if none); branch, load
	// and store classify it. All four are derived from the µop once, at
	// dispatch, for the stages that test them every cycle.
	dst                 isa.Reg
	branch, load, store bool
	// waiting counts the sources whose producers have not completed;
	// the entry may issue once it reaches zero.
	waiting uint8
	memSize uint8
	issued  bool
	done    bool
	wrFlags bool
	// branch resolution
	taken    bool
	resolved bool
}

// wakeup names one waiting operand, (pos+1)<<2 | op for the consumer's
// ROB position and its operand (opSrc1 … opChain); 0 ends a list.
type wakeup int32

func (w wakeup) pos() int32 { return int32(w>>2) - 1 }
func (w wakeup) op() int    { return int(w & 3) }

// The operands a producer's result can be pushed into.
const (
	opSrc1 = iota
	opSrc2
	opFlags
	opChain
)

// deliver writes producer p's result into e's operand op.
func (e *entry) deliver(p *entry, op int) {
	switch op {
	case opSrc1:
		e.v1 = p.val
	case opSrc2:
		e.v2 = p.val
	case opFlags:
		e.inFlags = p.outFlags
	case opChain:
		e.vc = p.val
	}
}

func (e *entry) writesReg() (isa.Reg, bool) {
	switch e.uop.Op {
	case isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.LOAD, isa.LOADB:
		return e.uop.Dst, e.uop.Dst != isa.NoReg
	case isa.RDTSC:
		if e.uop.Index == 0 {
			return e.uop.Dst, e.uop.Dst != isa.NoReg
		}
	case isa.CALL, isa.CALLI:
		if e.uop.Index == 0 {
			return isa.R15, true // push decrements the stack pointer
		}
	case isa.RET:
		if e.uop.Index == 1 {
			return isa.R15, true
		}
	}
	return isa.NoReg, false
}

func (e *entry) writesFlags() bool {
	if e.uop.Fused {
		return true
	}
	switch e.uop.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST:
		return true
	}
	return false
}

// Backend is one hardware thread's execution engine.
type Backend struct {
	cfg  Config
	fe   *frontend.FrontEnd
	bp   *bpu.BPU
	hier *mem.Hierarchy
	gmem Memory
	ctr  *perfctr.Counters

	// The ROB is the seqs [head, seq), each one's entry at its
	// position in ents, the ring of robPositions entries.
	ents     []entry
	head     uint64 // seq of the oldest entry
	seq      uint64 // next allocation number
	regProd  [isa.NumRegs]*entry
	flagProd *entry

	// Worklists: the per-cycle stages visit only the entries that can
	// act, never the whole ROB.
	//   - act holds the entries execute must visit: the unissued ones
	//     with no source left to wait for, and the issued ones that are
	//     due but not yet done: readyAt has passed, or is the next cycle
	//     for an entry issued with latency 1, which skips the wheel.
	//     nDue counts the latter.
	//   - fences and stores mark the not-done LFENCEs (nFences of
	//     them) and the stores; execute and SkipBound find the oldest
	//     by bitmap scan.
	//   - The timing wheel holds every other issued, not-done entry.
	//     One issued with a latency under wheelSize waits on the list
	//     of bucket readyAt mod wheelSize (wheel heads each list with
	//     position+1, 0 when empty; wheelBusy marks the non-empty buckets),
	//     one with a longer latency on the far list. execute moves the
	//     entries whose readyAt has come into act; wheelAt is the last
	//     cycle it did so.
	//   - branches holds the branches that completed since the last
	//     resolveBranches, in ROB order (execute completes entries in
	//     ROB order, and resolveBranches consumes the whole list).
	act, fences, stores posSet
	nDue, nFences       int
	wheel               [wheelSize]int32
	far                 int32
	wheelBusy           uint64
	wheelAt             uint64
	branches            []*entry

	regs  [isa.NumRegs]int64
	flags isa.Flags

	kernelMode bool
	sysRet     []uint64

	// OnPrivilegeSwitch, if set, fires at every retired privilege
	// transition (mitigation hooks: flush or re-partition the micro-op
	// cache at domain crossings).
	OnPrivilegeSwitch func(kernel bool)
	// OnRetire, if set, observes every retired micro-op (tracing).
	OnRetire func(cycle uint64, u isa.Uop)
	// OnSquash, if set, observes every pipeline squash with the
	// redirect target (tracing).
	OnSquash func(cycle uint64, target uint64)

	cycle  uint64
	halted bool
	// retired counts retired macro-ops (fused pairs count as two).
	retired uint64
}

// wheelSize is the timing wheel's bucket count, one bit of wheelBusy
// each. Every latency but a DRAM access is shorter, so a bucket holds
// exactly the entries due at its next cycle.
const wheelSize = 64

// robPositions bounds ROBSize: it is the number of ROB positions, so
// that a position set is a fixed array of words.
const robPositions = 512

// posSet is a bitmap over the ROB's positions.
type posSet [robPositions / 64]uint64

func (s *posSet) add(i uint64)      { s[i>>6] |= 1 << (i & 63) }
func (s *posSet) del(i uint64)      { s[i>>6] &^= 1 << (i & 63) }
func (s *posSet) has(i uint64) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// next returns the first seq in [from, to) whose position is in s, or
// to if there is none. from and to must lie within the ROB, so that
// every seq in between has its own position.
func (s *posSet) next(from, to uint64) uint64 {
	for from < to {
		i := from % robPositions
		if w := s[i>>6] >> (i & 63); w != 0 {
			if from += uint64(bits.TrailingZeros64(w)); from < to {
				return from
			}
			return to
		}
		from += 64 - i&63
	}
	return to
}

// New builds a backend for one hardware thread.
func New(cfg Config, fe *frontend.FrontEnd, bp *bpu.BPU, hier *mem.Hierarchy, gmem Memory, ctr *perfctr.Counters) *Backend {
	b := &Backend{cfg: cfg, fe: fe, bp: bp, hier: hier, gmem: gmem, ctr: ctr}
	b.regs[isa.R15] = int64(cfg.StackTop)
	if cfg.ROBSize > robPositions {
		panic(fmt.Sprintf("backend: ROBSize %d exceeds %d", cfg.ROBSize, robPositions))
	}
	// Size the ring and the worklists up front so the steady-state
	// cycle loop never grows any of them.
	b.ents = make([]entry, robPositions)
	b.branches = make([]*entry, 0, cfg.ROBSize)
	b.drain()
	return b
}

// drain empties the ROB and the worklists: nothing outside the backend
// holds entry pointers, and dispatch resets each position it reuses.
func (b *Backend) drain() {
	b.head, b.seq = 0, 0
	b.act, b.fences, b.stores = posSet{}, posSet{}, posSet{}
	b.wheel, b.far, b.wheelBusy = [wheelSize]int32{}, 0, 0
	b.nDue, b.nFences = 0, 0
	b.branches = b.branches[:0]
	b.regProd = [isa.NumRegs]*entry{}
	b.flagProd = nil
}

// Reset prepares the backend to run from a clean architectural state at
// entry. Register and memory contents persist (the attacks depend on
// persistent microarchitectural and memory state between runs).
func (b *Backend) Reset(pc uint64) {
	b.drain()
	b.halted = false
	b.fe.Redirect(pc)
}

// Halted reports whether the thread has retired a HALT.
func (b *Backend) Halted() bool { return b.halted }

// Reg returns the architectural value of r.
func (b *Backend) Reg(r isa.Reg) int64 { return b.regs[r] }

// SetReg sets the architectural value of r.
func (b *Backend) SetReg(r isa.Reg, v int64) { b.regs[r] = v }

// Retired returns retired macro-op count.
func (b *Backend) Retired() uint64 { return b.retired }

// KernelMode reports the current privilege level.
func (b *Backend) KernelMode() bool { return b.kernelMode }

// State is the backend state that persists between runs: architectural
// registers and flags, privilege mode, the syscall return stack, and
// the retired-macro-op count. In-flight ROB contents are deliberately
// absent — checkpoints are taken between runs, where Reset discards
// them anyway.
type State struct {
	Regs       [isa.NumRegs]int64
	Flags      isa.Flags
	KernelMode bool
	SysRet     []uint64
	Retired    uint64
	Halted     bool
}

// Save deep-copies the persistent backend state into s, reusing s's
// buffers.
func (b *Backend) Save(s *State) {
	s.Regs = b.regs
	s.Flags = b.flags
	s.KernelMode = b.kernelMode
	s.SysRet = append(s.SysRet[:0], b.sysRet...)
	s.Retired = b.retired
	s.Halted = b.halted
}

// Restore rehydrates the persistent backend state from s, draining the
// ROB (exactly as Reset does) so the backend sits in the quiescent
// between-runs position.
func (b *Backend) Restore(s *State) {
	b.drain()
	b.regs = s.Regs
	b.flags = s.Flags
	b.kernelMode = s.KernelMode
	b.sysRet = append(b.sysRet[:0], s.SysRet...)
	b.retired = s.Retired
	b.halted = s.Halted
}

// Tick advances the backend one cycle: retire, execute, then dispatch
// (reverse pipeline order so a micro-op spends at least a cycle in each
// stage).
func (b *Backend) Tick(cycle uint64) {
	b.cycle = cycle
	if b.halted {
		return
	}
	b.retire()
	b.resolveBranches()
	b.execute()
	b.dispatch()
}

// SkipBound returns how many upcoming cycles of Tick (called with
// cycle+1, cycle+2, …) are provably no-ops, so the core can advance
// the clock over them in one step. ^uint64(0) means the backend is
// idle until the front end delivers; 0 means the next Tick may retire,
// resolve, complete, issue, or dispatch and must run for real.
//
// The proof obligation: inside the returned window no entry completes
// (the bound ends strictly before the earliest readyAt), so nothing
// retires, no branch resolves, no dependency becomes ready, fences
// stay standing, and stores stay undrained — every blocked micro-op
// stays blocked for exactly the window.
func (b *Backend) SkipBound(cycle uint64) uint64 {
	const unbounded = ^uint64(0)
	if b.halted {
		return unbounded
	}
	if b.head == b.seq {
		if b.fe.IDQLen() > 0 {
			return 0 // dispatch would rename into the empty ROB
		}
		return unbounded
	}
	if b.at(b.head).done {
		return 0 // retire (or branch resolution) acts on the head
	}
	if b.fe.IDQLen() > 0 && b.seq-b.head < uint64(b.cfg.ROBSize) {
		return 0 // dispatch has both micro-ops and ROB room
	}
	if len(b.branches) > 0 || b.nDue > 0 {
		return 0 // resolveBranches acts, or a due entry completes
	}
	bound := unbounded
	if t := b.nextReady(cycle); t != unbounded {
		if t <= cycle+1 {
			return 0 // completes on the very next Tick
		}
		bound = t - cycle - 1
	}
	// With nothing due, act holds only entries with every source ready.
	// One issues on the next Tick unless held back by a condition that
	// can change solely through a completion or retirement — both
	// excluded inside the window.
	stop := b.seq
	if b.nFences > 0 {
		stop = b.fences.next(b.head, b.seq) + 1 // younger micro-ops wait behind the LFENCE
	}
	for s := b.act.next(b.head, stop); s < stop; s = b.act.next(s+1, stop) {
		e := b.at(s)
		if serializing(e.uop.Op) && s != b.head {
			// Waits to reach the ROB head, which takes a retirement;
			// execute stops here, so every younger micro-op waits too.
			break
		}
		if e.load && b.storeOlder(e) {
			continue // stores drain only at retire
		}
		return 0 // ready to issue next Tick
	}
	return bound
}

// nextReady returns the earliest readyAt in the timing wheel, or
// ^uint64(0) when it is empty. Every wheel entry is due after cycle
// (execute has moved the others to act), so the first busy bucket from
// cycle+1 on holds the earliest of the entries in buckets.
func (b *Backend) nextReady(cycle uint64) uint64 {
	best := ^uint64(0)
	if b.wheelBusy != 0 {
		from := cycle + 1
		best = from + uint64(bits.TrailingZeros64(bits.RotateLeft64(b.wheelBusy, -int(from%wheelSize))))
	}
	for w := b.far; w != 0; w = b.ents[w-1].wnext {
		best = min(best, b.ents[w-1].readyAt)
	}
	return best
}

// at returns the ROB entry with seq s.
func (b *Backend) at(s uint64) *entry { return &b.ents[s%robPositions] }

// dispatch renames micro-ops from the IDQ into the ROB.
func (b *Backend) dispatch() {
	room := b.cfg.ROBSize - int(b.seq-b.head)
	n := b.cfg.DispatchWidth
	if n > room {
		n = room
	}
	q := b.fe.Peek()
	if n > len(q) {
		n = len(q)
	}
	if n <= 0 {
		return
	}
	var prev *entry
	if b.seq > b.head {
		prev = b.at(b.seq - 1)
	}
	for i := range q[:n] {
		u := &q[i]
		pos := b.seq % robPositions
		e := &b.ents[pos]
		// Reset the entry in place, then copy the µop once: a composite
		// literal with *u in it would be built in a temporary and
		// copied again.
		*e = entry{}
		e.uop = *u
		e.seq = b.seq
		b.seq++
		e.dst, _ = e.writesReg()
		e.branch, e.load, e.store = u.IsBranch(), isLoad(u), isStore(u)
		b.captureSources(e, int32(pos))
		if prev != nil && u.Index > 0 && prev.uop.MacroAddr == u.MacroAddr {
			// Intra-macro-op chaining (e.g. RET's branch consumes the
			// popped return address).
			b.link(prev, e, int32(pos), opChain)
		}
		prev = e
		if e.waiting == 0 {
			b.act.add(pos)
		}
		if u.Op == isa.LFENCE {
			b.fences.add(pos)
			b.nFences++
		}
		if e.store {
			b.stores.add(pos)
		}
		if e.dst != isa.NoReg {
			b.regProd[e.dst] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
	b.fe.Discard(n)
}

// sources returns the registers u reads as its first and second
// operand (NoReg when absent) and whether it reads the flags.
func sources(u *isa.Uop) (src1, src2 isa.Reg, flags bool) {
	src2reg := u.Src
	if u.Fused {
		src2reg = u.FusedSrc
		if u.FusedHasImm {
			src2reg = isa.NoReg
		}
	} else if u.HasImm {
		src2reg = isa.NoReg
	}
	switch u.Op {
	case isa.MOV, isa.LOAD, isa.LOADB, isa.CLFLUSH:
		return u.Src, isa.NoReg, false
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST:
		return u.Dst, src2reg, false
	case isa.JCC:
		if u.Fused {
			return u.Dst, src2reg, false
		}
		return isa.NoReg, isa.NoReg, true
	case isa.JMPI:
		return u.Dst, isa.NoReg, false
	case isa.CALLI:
		if u.Index == 0 {
			return isa.R15, isa.NoReg, false // push uses the stack pointer
		}
		return u.Dst, isa.NoReg, false
	case isa.STORE, isa.STOREB:
		return u.Src, u.Dst, false // base, data
	case isa.CALL:
		if u.Index == 0 {
			return isa.R15, isa.NoReg, false
		}
	case isa.RET:
		return isa.R15, isa.NoReg, false
	}
	return isa.NoReg, isa.NoReg, false
}

// captureSources links e (at ROB position pos) to the in-flight
// producers of its sources, or captures the architectural values if
// none exists.
func (b *Backend) captureSources(e *entry, pos int32) {
	src1, src2, flags := sources(&e.uop)
	if src1 != isa.NoReg {
		if p := b.regProd[src1]; p != nil {
			b.link(p, e, pos, opSrc1)
		} else {
			e.v1 = b.regs[src1]
		}
	}
	if src2 != isa.NoReg {
		if p := b.regProd[src2]; p != nil {
			b.link(p, e, pos, opSrc2)
		} else {
			e.v2 = b.regs[src2]
		}
	}
	if flags {
		if b.flagProd != nil {
			b.link(b.flagProd, e, pos, opFlags)
		} else {
			e.inFlags = b.flags
		}
	}
}

// link makes operand op of e, at ROB position pos, wait for producer
// p's result, or takes the result at once if p has already completed.
func (b *Backend) link(p, e *entry, pos int32, op int) {
	if p.done {
		e.deliver(p, op)
		return
	}
	e.next[op] = p.consumers
	p.consumers = wakeup((pos+1)<<2 | int32(op))
	e.waiting++
}

func isLoad(u *isa.Uop) bool {
	switch u.Op {
	case isa.LOAD, isa.LOADB:
		return true
	case isa.RET:
		return u.Index == 0 // the return-address pop
	}
	return false
}

func isStore(u *isa.Uop) bool {
	switch u.Op {
	case isa.STORE, isa.STOREB:
		return true
	case isa.CALL, isa.CALLI:
		return u.Index == 0 // the return-address push
	}
	return false
}

// serializing reports whether a micro-op issues only at the ROB head:
// LFENCE, and SYSRET, which must observe the SYSCALL-pushed return
// address that lands at retirement, and ITLBFLUSH.
func serializing(op isa.Op) bool {
	return op == isa.LFENCE || op == isa.SYSRET || op == isa.ITLBFLUSH
}

// storeOlder reports whether a store older than e is still in the ROB.
func (b *Backend) storeOlder(e *entry) bool {
	return b.stores.next(b.head, e.seq) < e.seq
}

// execute completes due micro-ops and issues ready ones, oldest first.
// It visits only act — due completions merged, in seq order, with the
// entries whose sources are all ready — and stops where the in-order
// issue stage stops: at the first unissued micro-op once the ports are
// spent or behind an in-flight LFENCE, and at a serializing micro-op
// not at the ROB head. Entries due past that point complete on a later
// cycle.
func (b *Backend) execute() {
	b.advanceWheel()
	tail := b.seq
	s := b.act.next(b.head, tail)
	if s == tail {
		return
	}
	limit := tail
	if b.nFences > 0 {
		// LFENCE: younger micro-ops are not dispatched to execution
		// until it completes. (They were still fetched and decoded —
		// the variant-2 channel.)
		limit = b.nextUnissued(b.fences.next(b.head, tail)+1, tail)
	}
	ports := b.cfg.ExecPorts
	if ports == 0 {
		limit = b.nextUnissued(b.head, limit)
	}
	for ; s < limit; s = b.act.next(s+1, limit) {
		pos := s % robPositions
		e := &b.ents[pos]
		if e.issued {
			b.act.del(pos)
			b.nDue--
			b.finish(e)
			continue
		}
		if serializing(e.uop.Op) && s != b.head {
			return
		}
		if e.load && b.storeOlder(e) {
			// Stores commit memory at retire; a younger load must wait
			// for older stores to drain (conservative memory ordering
			// in place of store-to-load forwarding).
			continue
		}
		b.issue(e)
		switch e.readyAt - b.cycle {
		case 0:
			b.act.del(pos)
			b.finish(e)
		case 1:
			// Due on the next cycle: it stays in act, which this walk
			// has already passed.
			b.nDue++
		default:
			b.act.del(pos)
			b.wheelAdd(e, int32(pos))
		}
		if ports--; ports == 0 {
			limit = b.nextUnissued(s+1, limit)
		}
	}
}

// nextUnissued returns the first seq in [from, to) whose entry has not
// issued, or to. It runs only when the ports are spent or an LFENCE is
// in flight, and behind an LFENCE the very next entry is unissued.
func (b *Backend) nextUnissued(from, to uint64) uint64 {
	for ; from < to && b.at(from).issued; from++ {
	}
	return from
}

// advanceWheel moves the wheel entries due by this cycle into act.
func (b *Backend) advanceWheel() {
	if busy := b.wheelBusy; busy != 0 {
		if span := b.cycle - b.wheelAt; span < wheelSize {
			// Only the buckets of cycles wheelAt+1 … cycle can have come
			// due.
			busy &= bits.RotateLeft64(1<<span-1, int((b.wheelAt+1)%wheelSize))
		}
		b.wheelBusy &^= busy
		for busy != 0 {
			k := bits.TrailingZeros64(busy)
			busy &= busy - 1
			for w := b.wheel[k]; w != 0; w = b.ents[w-1].wnext {
				b.act.add(uint64(w - 1))
				b.nDue++
			}
			b.wheel[k] = 0
		}
	}
	b.wheelAt = b.cycle
	for link := &b.far; *link != 0; {
		if e := &b.ents[*link-1]; e.readyAt <= b.cycle {
			b.act.add(uint64(*link - 1))
			*link = e.wnext
			b.nDue++
		} else {
			link = &e.wnext
		}
	}
}

// wheelAdd files the just-issued entry e, at ROB position pos, under
// its readyAt.
func (b *Backend) wheelAdd(e *entry, pos int32) {
	if e.readyAt-b.cycle >= wheelSize {
		e.wnext, b.far = b.far, pos+1
		return
	}
	k := e.readyAt % wheelSize
	e.wnext, b.wheel[k] = b.wheel[k], pos+1
	b.wheelBusy |= 1 << k
}

// wheelDel takes the issued, not-yet-due entry e, at ROB position pos,
// off the timing wheel. Only a squash does, so it may walk the list.
func (b *Backend) wheelDel(e *entry, pos int32) {
	k := e.readyAt % wheelSize
	for _, link := range [...]*int32{&b.wheel[k], &b.far} {
		for *link != 0 && *link != pos+1 {
			link = &b.ents[*link-1].wnext
		}
		if *link != 0 {
			*link = e.wnext
			break
		}
	}
	if b.wheel[k] == 0 {
		b.wheelBusy &^= 1 << k
	}
}

// finish completes e: it pushes e's result into every waiting operand,
// making each consumer with nothing left to wait for ready to issue,
// and queues a branch for resolveBranches.
func (b *Backend) finish(e *entry) {
	e.done = true
	if e.uop.Op == isa.LFENCE {
		b.fences.del(e.seq % robPositions)
		b.nFences--
	}
	if e.branch {
		b.branches = append(b.branches, e)
	}
	for w := e.consumers; w != 0; {
		c := &b.ents[w.pos()]
		c.deliver(e, w.op())
		if c.waiting--; c.waiting == 0 {
			b.act.add(uint64(w.pos()))
		}
		w = c.next[w.op()]
	}
	e.consumers = 0
}

// issue starts execution of e, computing its result and the cycle it
// becomes available.
func (b *Backend) issue(e *entry) {
	e.issued = true
	u := &e.uop
	lat := uint64(1)
	v1, v2 := e.v1, e.v2

	switch u.Op {
	case isa.NOP, isa.LFENCE, isa.PAUSE, isa.MSROMOP, isa.HALT,
		isa.CPUID, isa.ITLBFLUSH:
		// No result. PAUSE has a longer occupancy.
		if u.Op == isa.PAUSE {
			lat = 10
		}
	case isa.MOVI:
		e.val = u.Imm
	case isa.MOV:
		e.val = v1
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		rhs := v2
		if u.HasImm {
			rhs = u.Imm
		}
		e.val, e.outFlags = aluOp(u.Op, v1, rhs)
		e.wrFlags = true
	case isa.CMP, isa.TEST:
		rhs := v2
		if u.HasImm {
			rhs = u.Imm
		}
		op := isa.SUB
		if u.Op == isa.TEST {
			op = isa.AND
		}
		_, e.outFlags = aluOp(op, v1, rhs)
		e.wrFlags = true
	case isa.JMP:
		e.taken = true
		e.target = uint64(u.Imm)
	case isa.JCC:
		fl := e.inFlags
		if u.Fused {
			rhs := v2
			if u.FusedHasImm {
				rhs = u.FusedImm
			}
			op := isa.SUB
			if u.FusedOp == isa.TEST {
				op = isa.AND
			}
			_, fl = aluOp(op, v1, rhs)
			e.outFlags = fl
			e.wrFlags = true
		}
		e.taken = u.Cond.Eval(fl)
		e.target = uint64(u.Imm)
	case isa.JMPI:
		e.taken = true
		e.target = uint64(v1)
	case isa.LOAD, isa.LOADB:
		e.memAddr = uint64(v1 + u.Imm)
		e.memSize = 8
		if u.Op == isa.LOADB {
			e.memSize = 1
		}
		if b.cfg.InvisibleSpeculation {
			// Invisible speculation: probe the latency without filling
			// any cache level; the visible fill happens at retirement.
			lat = uint64(b.hier.PeekDataLatency(e.memAddr))
		} else {
			lat = uint64(b.hier.AccessData(e.memAddr))
		}
		e.val = b.gmem.Read(e.memAddr, int(e.memSize))
	case isa.STORE, isa.STOREB:
		e.memAddr = uint64(v1 + u.Imm)
		e.memSize = 8
		if u.Op == isa.STOREB {
			e.memSize = 1
		}
		e.val = v2
		lat = 1 // the write itself lands at retire
	case isa.CLFLUSH:
		e.memAddr = uint64(v1 + u.Imm)
	case isa.RDTSC:
		if u.Index == 0 {
			e.val = int64(b.cycle)
		}
	case isa.CALL, isa.CALLI:
		if u.Index == 0 {
			e.val = v1 - 8 // new stack pointer
			e.memAddr = uint64(v1 - 8)
			e.memSize = 8
		} else {
			e.taken = true
			if u.Op == isa.CALL {
				e.target = uint64(u.Imm)
			} else {
				e.target = uint64(v1)
			}
		}
	case isa.RET:
		if u.Index == 0 {
			// Pop: load the return address into the chain temp.
			e.memAddr = uint64(v1)
			e.memSize = 8
			lat = uint64(b.hier.AccessData(e.memAddr))
			e.val = b.gmem.Read(e.memAddr, 8)
		} else {
			// Branch to the popped address; bump the stack pointer.
			e.taken = true
			e.target = uint64(e.vc)
			e.val = v1 + 8
		}
	case isa.SYSCALL:
		if u.Index == u.Count-1 {
			e.taken = true
			e.target = b.cfg.KernelEntry
		}
	case isa.SYSRET:
		e.taken = true
		if n := len(b.sysRet); n > 0 {
			e.target = b.sysRet[n-1]
		}
	}
	e.readyAt = b.cycle + lat
}

// aluOp computes v = a op b and the resulting flags.
func aluOp(op isa.Op, a, bv int64) (int64, isa.Flags) {
	var v int64
	var f isa.Flags
	switch op {
	case isa.ADD:
		v = a + bv
	case isa.SUB:
		v = a - bv
		f.Carry = uint64(a) < uint64(bv)
	case isa.AND:
		v = a & bv
	case isa.OR:
		v = a | bv
	case isa.XOR:
		v = a ^ bv
	case isa.SHL:
		v = a << (uint64(bv) & 63)
	case isa.SHR:
		v = int64(uint64(a) >> (uint64(bv) & 63))
	}
	f.Zero = v == 0
	f.Sign = v < 0
	return v, f
}

// resolveBranches resolves the branches completed since the last call,
// oldest first, and squashes on the first misprediction found. Every
// branch on the list is resolved or squashed, so the list empties.
func (b *Backend) resolveBranches() {
	for _, e := range b.branches {
		e.resolved = true
		u := &e.uop
		actualNext := u.FallThrough()
		if e.taken {
			actualNext = e.target
		}
		predNext := u.FallThrough()
		if u.PredTaken {
			predNext = u.PredTarget
		}
		// Train predictors with the resolved outcome.
		misp := actualNext != predNext
		switch u.Op {
		case isa.JCC:
			b.bp.UpdateDirection(u.BranchPC, e.taken, misp)
			if e.taken {
				b.bp.UpdateTarget(u.BranchPC, e.target)
			}
		case isa.JMP, isa.CALL:
			b.bp.UpdateTarget(u.BranchPC, e.target)
		case isa.JMPI, isa.CALLI:
			b.bp.UpdateIndirect(u.BranchPC, e.target)
		}
		if misp {
			b.squashAfter(e)
			b.ctr.Inc(perfctr.BranchMispredicts)
			b.ctr.Inc(perfctr.Squashes)
			if b.OnSquash != nil {
				b.OnSquash(b.cycle, actualNext)
			}
			b.fe.Redirect(actualNext)
			b.fe.AddStall(b.cfg.MispredictPenalty)
			return
		}
	}
	b.branches = b.branches[:0]
}

// squashAfter drops every ROB entry younger than the branch br and
// rebuilds the rename state from the survivors. Cache and micro-op
// cache side effects of squashed micro-ops are — deliberately — not
// undone.
func (b *Backend) squashAfter(br *entry) {
	for s := br.seq + 1; s < b.seq; s++ {
		pos := s % robPositions
		e := &b.ents[pos]
		if e.issued && !e.done {
			if b.act.has(pos) {
				b.nDue--
			} else {
				b.wheelDel(e, int32(pos))
			}
		}
		if e.uop.Op == isa.LFENCE && !e.done {
			b.nFences--
		}
		b.act.del(pos)
		b.fences.del(pos)
		b.stores.del(pos)
	}
	// Dispatch resumes right after br, so the ROB stays one run of
	// positions. Every completed branch still listed is younger than br.
	b.seq = br.seq + 1
	b.branches = b.branches[:0]
	b.regProd = [isa.NumRegs]*entry{}
	b.flagProd = nil
	for s := b.head; s < b.seq; s++ {
		e := b.at(s)
		// Consumer lists run youngest first, so the squashed consumers
		// (whose positions still hold their entries) form the head.
		for w := e.consumers; w != 0 && b.ents[w.pos()].seq > br.seq; w = e.consumers {
			e.consumers = b.ents[w.pos()].next[w.op()]
		}
		if e.dst != isa.NoReg {
			b.regProd[e.dst] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
}

// retire commits completed micro-ops in order; each retired entry's
// position is free for dispatch.
func (b *Backend) retire() {
	for n := 0; n < b.cfg.RetireWidth && b.head != b.seq; n++ {
		pos := b.head % robPositions
		e := &b.ents[pos]
		if !e.done {
			break
		}
		if e.branch && !e.resolved {
			break
		}
		b.commit(e)
		b.clearProducer(e)
		if e.store {
			b.stores.del(pos)
		}
		b.head++
		if b.OnRetire != nil {
			b.OnRetire(b.cycle, e.uop)
		}
		b.ctr.Inc(perfctr.UopsRetired)
		if e.uop.Index == e.uop.Count-1 {
			b.ctr.Inc(perfctr.Instructions)
			if e.uop.Fused {
				b.ctr.Inc(perfctr.Instructions)
			}
			b.retired++
			if e.uop.Fused {
				b.retired++
			}
		}
		if b.halted {
			break
		}
	}
}

// clearProducer removes rename-table references to a retired entry.
// The rename table only ever maps an entry's own destination register
// to it (dispatch and squashAfter set regProd[r] only for e.dst), so
// that is the one slot to check.
func (b *Backend) clearProducer(e *entry) {
	if e.dst != isa.NoReg && b.regProd[e.dst] == e {
		b.regProd[e.dst] = nil
	}
	if b.flagProd == e {
		b.flagProd = nil
	}
}

// commit applies e's architectural effects.
func (b *Backend) commit(e *entry) {
	u := &e.uop
	if e.dst != isa.NoReg {
		b.regs[e.dst] = e.val
	}
	if e.wrFlags {
		b.flags = e.outFlags
	}
	switch u.Op {
	case isa.LOAD, isa.LOADB:
		if b.cfg.InvisibleSpeculation {
			// The load is no longer speculative: make its fill visible.
			b.hier.AccessData(e.memAddr)
		}
	case isa.STORE, isa.STOREB:
		b.hier.AccessData(e.memAddr)
		b.gmem.Write(e.memAddr, int(e.memSize), e.val)
	case isa.CALL, isa.CALLI:
		if u.Index == 0 {
			b.gmem.Write(e.memAddr, 8, int64(u.FallThrough()))
		}
	case isa.CLFLUSH:
		b.hier.Flush(e.memAddr)
	case isa.CPUID:
		if u.Index == u.Count-1 {
			b.fe.SerializeDone(u.FallThrough())
		}
	case isa.SYSCALL:
		if u.Index == u.Count-1 {
			b.kernelMode = true
			b.sysRet = append(b.sysRet, u.FallThrough())
			if b.OnPrivilegeSwitch != nil {
				b.OnPrivilegeSwitch(true)
			}
		}
	case isa.SYSRET:
		b.kernelMode = false
		if n := len(b.sysRet); n > 0 {
			b.sysRet = b.sysRet[:n-1]
		}
		if b.OnPrivilegeSwitch != nil {
			b.OnPrivilegeSwitch(false)
		}
	case isa.ITLBFLUSH:
		if u.Index == u.Count-1 {
			b.hier.FlushITLB()
		}
	case isa.HALT:
		b.halted = true
		b.fe.Stop()
	}
}

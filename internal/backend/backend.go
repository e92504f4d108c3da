// Package backend models a simplified out-of-order execution engine:
// register renaming via dataflow dependencies, latency-accurate loads
// against the cache hierarchy, in-order retirement, branch resolution
// with squash, and the fence semantics the transient-execution attacks
// probe — LFENCE blocks issue of younger micro-ops but not fetch, while
// CPUID serializes fetch itself.
package backend

import (
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
	ROBSize       int
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

// entry is one in-flight micro-op.
type entry struct {
	uop isa.Uop
	// seq is the entry's allocation number, monotonically increasing in
	// dispatch order. The entry pool uses it to decide when a retired
	// producer can no longer be referenced by any in-flight consumer;
	// the ROB is sorted by it, and the store FIFO records it.
	seq uint64

	// dataflow sources; nil when the operand comes from the
	// architectural register file at dispatch time.
	src1, src2, flagSrc, chain *entry
	// captured architectural operand values (valid when the matching
	// src pointer is nil).
	v1, v2  int64
	inFlags isa.Flags

	issued  bool
	done    bool
	readyAt uint64 // cycle the result becomes available

	// results
	val      int64
	outFlags isa.Flags
	wrFlags  bool
	memAddr  uint64
	memSize  int

	// branch resolution
	taken    bool
	target   uint64
	resolved bool
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

	// rob is the reorder buffer, oldest first: a window into robBuf,
	// which holds twice ROBSize entries. Retirement advances the
	// window's start and dispatch appends at its end, sliding the window
	// back to the buffer's start only when the tail runs out (see
	// slide), so the per-cycle stages never shift the ROB.
	rob      []*entry
	robBuf   []*entry
	regProd  [isa.NumRegs]*entry
	flagProd *entry

	// Worklists: the per-cycle stages visit only the entries that can
	// act, never the whole ROB.
	//   - pend holds exactly the ROB's not-done entries, in ROB order;
	//     execute and SkipBound walk it.
	//   - branches holds the branches that completed since the last
	//     resolveBranches, in ROB order (execute marks entries done in
	//     ROB order, and resolveBranches consumes the whole list).
	//   - stores holds the seq of every store in the ROB, oldest first
	//     (a window into storeBuf, like rob): a load may issue only when
	//     no store older than it is still in the ROB.
	pend     []*entry
	branches []*entry
	stores   []uint64
	storeBuf []uint64

	// Entry pool. Dataflow references only ever point from younger
	// entries to older ones (captureSources reads regProd/flagProd/the
	// previous ROB slot), and consumers read retired producers lazily
	// (depVal at issue time), so a retired entry must outlive every
	// entry dispatched before it retired. The graveyard parks retired
	// entries stamped with the allocation watermark at retirement
	// (freeAt); once the oldest live entry's seq reaches that watermark
	// no referencer can remain and the entry moves to the free list.
	// Squashed entries skip the graveyard: their only possible
	// referencers are younger entries squashed with them.
	seq   uint64     // next allocation number
	free  []*entry   // recycled entries ready for reuse
	grave []graveRec // retired entries awaiting their watermark, oldest first
	// graveBuf backs the grave window (twice ROBSize records): every
	// parked entry was in the ROB together with the current ROB head,
	// so at most ROBSize−1 are ever parked.
	graveBuf []graveRec

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

// graveRec parks one retired entry until the allocation watermark
// guarantees no in-flight consumer can still reference it.
type graveRec struct {
	e      *entry
	freeAt uint64
}

// New builds a backend for one hardware thread.
func New(cfg Config, fe *frontend.FrontEnd, bp *bpu.BPU, hier *mem.Hierarchy, gmem Memory, ctr *perfctr.Counters) *Backend {
	b := &Backend{cfg: cfg, fe: fe, bp: bp, hier: hier, gmem: gmem, ctr: ctr}
	b.regs[isa.R15] = int64(cfg.StackTop)
	// Pre-size the ROB windows, the worklists and the entry pool so
	// the steady-state cycle loop never grows any of them.
	b.robBuf = make([]*entry, 2*cfg.ROBSize)
	b.storeBuf = make([]uint64, 2*cfg.ROBSize)
	b.graveBuf = make([]graveRec, 2*cfg.ROBSize)
	b.pend = make([]*entry, 0, cfg.ROBSize)
	b.branches = make([]*entry, 0, cfg.ROBSize)
	b.free = make([]*entry, 0, cfg.ROBSize)
	b.drain()
	return b
}

// slide makes room for one more element at the end of w, a window
// into buf that extends to buf's end: when w's tail has reached that
// end, the window moves back to buf's start. Since a window never holds
// more than half of buf, each element moves at most once per
// len(buf)/2 appends.
func slide[T any](w, buf []T) []T {
	if len(w) < cap(w) {
		return w
	}
	return buf[:copy(buf, w)]
}

// newEntry takes an entry from the free list (or allocates one),
// copies u into it, and stamps it with the next sequence number.
func (b *Backend) newEntry(u *isa.Uop) *entry {
	var e *entry
	if n := len(b.free); n > 0 {
		e = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		e = new(entry)
	}
	// Zero in place, then copy the µop once: a composite literal with
	// *u in it would be built in a temporary and copied again.
	*e = entry{}
	e.uop = *u
	e.seq = b.seq
	b.seq++
	return e
}

// drain recycles every in-flight and parked entry and empties the ROB
// and the worklists: nothing outside the backend holds entry pointers.
func (b *Backend) drain() {
	b.free = append(b.free, b.rob...)
	for i := range b.grave {
		b.free = append(b.free, b.grave[i].e)
	}
	b.rob = b.robBuf[:0]
	b.grave = b.graveBuf[:0]
	b.stores = b.storeBuf[:0]
	b.pend = b.pend[:0]
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
// registers and flags, privilege mode, the syscall return stack, the
// retired-macro-op count, and the entry-pool sequence watermark.
// In-flight ROB contents are deliberately absent — checkpoints are
// taken between runs, where Reset discards them anyway.
type State struct {
	Regs       [isa.NumRegs]int64
	Flags      isa.Flags
	KernelMode bool
	SysRet     []uint64
	Seq        uint64
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
	s.Seq = b.seq
	s.Retired = b.retired
	s.Halted = b.halted
}

// Restore rehydrates the persistent backend state from s, draining any
// in-flight and parked entries back to the pool (exactly as Reset
// does) so the backend sits in the quiescent between-runs position.
func (b *Backend) Restore(s *State) {
	b.drain()
	b.regs = s.Regs
	b.flags = s.Flags
	b.kernelMode = s.KernelMode
	b.sysRet = append(b.sysRet[:0], s.SysRet...)
	b.seq = s.Seq
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
	if len(b.rob) == 0 {
		if b.fe.IDQLen() > 0 {
			return 0 // dispatch would rename into the empty ROB
		}
		return unbounded
	}
	if b.rob[0].done {
		return 0 // retire (or branch resolution) acts on the head
	}
	if b.fe.IDQLen() > 0 && len(b.rob) < b.cfg.ROBSize {
		return 0 // dispatch has both micro-ops and ROB room
	}
	if len(b.branches) > 0 {
		return 0 // resolveBranches acts
	}
	// Done entries cannot act any more; pend holds all the others.
	bound := unbounded
	pastFence := false // an older micro-op in pend is an LFENCE
	fenced := false    // a ready serializing micro-op blocks all younger issue
	for _, e := range b.pend {
		behindFence := pastFence
		if e.uop.Op == isa.LFENCE {
			pastFence = true
		}
		if e.issued {
			if e.readyAt <= cycle+1 {
				return 0 // completes on the very next Tick
			}
			if w := e.readyAt - cycle - 1; w < bound {
				bound = w
			}
			continue
		}
		// Unissued. It is window-inert only if blocked by a condition
		// that can change solely through a completion or retirement —
		// both excluded inside the window.
		if fenced {
			continue
		}
		if behindFence {
			continue // behind an in-flight LFENCE
		}
		if !depReady(e.src1) || !depReady(e.src2) ||
			!depReady(e.flagSrc) || !depReady(e.chain) {
			continue // waiting on an in-flight producer
		}
		switch e.uop.Op {
		case isa.LFENCE, isa.SYSRET, isa.ITLBFLUSH:
			if e != b.rob[0] {
				// Serializing: waits to reach the ROB head, which takes a
				// retirement; execute's issue loop breaks here, so every
				// younger micro-op is blocked with it.
				fenced = true
				continue
			}
		}
		if isLoad(&e.uop) && b.storeOlder(e) {
			continue // stores drain only at retire
		}
		return 0 // ready to issue next Tick
	}
	return bound
}

// dispatch renames micro-ops from the IDQ into the ROB.
func (b *Backend) dispatch() {
	room := b.cfg.ROBSize - len(b.rob)
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
	for i := range q[:n] {
		u := &q[i]
		e := b.newEntry(u)
		b.captureSources(e)
		if prev := len(b.rob) - 1; prev >= 0 && u.Index > 0 &&
			b.rob[prev].uop.MacroAddr == u.MacroAddr {
			// Intra-macro-op chaining (e.g. RET's branch consumes the
			// popped return address).
			e.chain = b.rob[prev]
		}
		b.rob = append(slide(b.rob, b.robBuf), e)
		b.pend = append(b.pend, e)
		if isStore(u) {
			b.stores = append(slide(b.stores, b.storeBuf), e.seq)
		}
		if r, ok := e.writesReg(); ok {
			b.regProd[r] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
	b.fe.Discard(n)
}

// captureSources records e's dataflow dependencies, or captures the
// architectural values if no in-flight producer exists.
func (b *Backend) captureSources(e *entry) {
	u := &e.uop
	readReg := func(r isa.Reg) (*entry, int64) {
		if r == isa.NoReg {
			return nil, 0
		}
		if p := b.regProd[r]; p != nil {
			return p, 0
		}
		return nil, b.regs[r]
	}
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
	case isa.MOVI, isa.JMP, isa.NOP, isa.LFENCE, isa.CPUID, isa.PAUSE,
		isa.RDTSC, isa.MSROMOP, isa.HALT, isa.SYSCALL, isa.SYSRET,
		isa.ITLBFLUSH:
		// No register sources.
	case isa.MOV:
		e.src1, e.v1 = readReg(u.Src)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		e.src1, e.v1 = readReg(u.Dst)
		e.src2, e.v2 = readReg(src2reg)
	case isa.CMP, isa.TEST:
		e.src1, e.v1 = readReg(u.Dst)
		e.src2, e.v2 = readReg(src2reg)
	case isa.JCC:
		if u.Fused {
			e.src1, e.v1 = readReg(u.Dst)
			e.src2, e.v2 = readReg(src2reg)
		} else if b.flagProd != nil {
			e.flagSrc = b.flagProd
		} else {
			e.inFlags = b.flags
		}
	case isa.JMPI:
		e.src1, e.v1 = readReg(u.Dst)
	case isa.CALLI:
		if u.Index == 0 {
			e.src1, e.v1 = readReg(isa.R15) // push uses the stack pointer
		} else {
			e.src1, e.v1 = readReg(u.Dst)
		}
	case isa.LOAD, isa.LOADB, isa.CLFLUSH:
		e.src1, e.v1 = readReg(u.Src)
	case isa.STORE, isa.STOREB:
		e.src1, e.v1 = readReg(u.Src) // base
		e.src2, e.v2 = readReg(u.Dst) // data
	case isa.CALL:
		if u.Index == 0 {
			e.src1, e.v1 = readReg(isa.R15)
		}
	case isa.RET:
		e.src1, e.v1 = readReg(isa.R15)
	}
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

// storeOlder reports whether a store older than e is still in the ROB.
func (b *Backend) storeOlder(e *entry) bool {
	return len(b.stores) > 0 && b.stores[0] < e.seq
}

func depReady(d *entry) bool { return d == nil || d.done }

func depVal(d *entry, captured int64) int64 {
	if d != nil {
		return d.val
	}
	return captured
}

// execute issues ready micro-ops to execution and completes in-flight
// ones, oldest first. It walks pend only — done entries elsewhere in
// the ROB have nothing left to do — compacting out the entries that
// complete.
func (b *Backend) execute() {
	ports := b.cfg.ExecPorts
	pastFence := false // an older micro-op in pend is an LFENCE
	keep := b.pend[:0]
	i := 0
issueLoop:
	for ; i < len(b.pend); i++ {
		e := b.pend[i]
		behindFence := pastFence
		if e.uop.Op == isa.LFENCE {
			pastFence = true
		}
		if e.issued {
			if b.cycle >= e.readyAt {
				b.markDone(e)
			} else {
				keep = append(keep, e)
			}
			continue
		}
		if ports == 0 {
			break
		}
		if behindFence {
			// LFENCE: younger micro-ops are not dispatched to
			// execution until it completes. (They were still fetched
			// and decoded — the variant-2 channel.)
			break
		}
		if !depReady(e.src1) || !depReady(e.src2) ||
			!depReady(e.flagSrc) || !depReady(e.chain) {
			keep = append(keep, e)
			continue
		}
		switch e.uop.Op {
		case isa.LFENCE, isa.SYSRET, isa.ITLBFLUSH:
			// Serializing: execute only once all older micro-ops have
			// drained (SYSRET must observe the SYSCALL-pushed return
			// address, which lands at retirement).
			if e != b.rob[0] {
				break issueLoop
			}
		}
		if isLoad(&e.uop) && b.storeOlder(e) {
			// Stores commit memory at retire; a younger load must wait
			// for older stores to drain (conservative memory ordering
			// in place of store-to-load forwarding).
			keep = append(keep, e)
			continue
		}
		ports--
		b.issue(e)
		if e.done {
			b.markDone(e)
		} else {
			keep = append(keep, e)
		}
	}
	if len(keep) < i {
		b.pend = append(keep, b.pend[i:]...)
	}
}

// markDone completes e. The caller drops it from pend; a branch joins
// the list resolveBranches consumes.
func (b *Backend) markDone(e *entry) {
	e.done = true
	if e.uop.IsBranch() {
		b.branches = append(b.branches, e)
	}
}

// issue starts execution of e, computing its result and latency.
func (b *Backend) issue(e *entry) {
	e.issued = true
	u := &e.uop
	lat := uint64(1)
	v1 := depVal(e.src1, e.v1)
	v2 := depVal(e.src2, e.v2)

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
		} else if e.flagSrc != nil {
			fl = e.flagSrc.outFlags
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
		e.val = b.gmem.Read(e.memAddr, e.memSize)
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
			e.target = uint64(depVal(e.chain, 0))
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
	if lat == 0 {
		e.done = true
	}
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
	// The ROB is in strictly increasing seq order: find br by binary
	// search.
	i, hi := 0, len(b.rob)
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if b.rob[m].seq < br.seq {
			i = m + 1
		} else {
			hi = m
		}
	}
	// Squashed entries can only be referenced by younger entries — which
	// are squashed with them — so they recycle immediately. Every
	// completed branch still listed is younger than br.
	b.free = append(b.free, b.rob[i+1:]...)
	b.rob = b.rob[:i+1]
	b.branches = b.branches[:0]
	n := len(b.pend)
	for n > 0 && b.pend[n-1].seq > br.seq {
		n--
	}
	b.pend = b.pend[:n]
	n = len(b.stores)
	for n > 0 && b.stores[n-1] > br.seq {
		n--
	}
	b.stores = b.stores[:n]
	b.regProd = [isa.NumRegs]*entry{}
	b.flagProd = nil
	for _, e := range b.rob {
		if r, ok := e.writesReg(); ok {
			b.regProd[r] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
}

// retire commits completed micro-ops in order. Each retired entry
// leaves the head of the ROB window and is parked in the graveyard
// until the watermark frees it.
func (b *Backend) retire() {
	n := 0
	for n < b.cfg.RetireWidth && len(b.rob) > 0 {
		e := b.rob[0]
		if !e.done {
			break
		}
		if e.uop.IsBranch() && !e.resolved {
			break
		}
		b.commit(e)
		b.clearProducer(e)
		b.rob = b.rob[1:]
		if isStore(&e.uop) {
			b.stores = b.stores[1:]
		}
		b.grave = append(slide(b.grave, b.graveBuf), graveRec{e: e, freeAt: b.seq})
		n++
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
	if n > 0 {
		b.reclaim()
	}
}

// reclaim moves graveyard entries past their watermark to the free
// list: once the oldest live entry was dispatched at or after an
// entry's retirement watermark, no remaining consumer can hold a
// reference to it.
func (b *Backend) reclaim() {
	watermark := b.seq
	if len(b.rob) > 0 {
		watermark = b.rob[0].seq
	}
	for len(b.grave) > 0 && b.grave[0].freeAt <= watermark {
		b.free = append(b.free, b.grave[0].e)
		b.grave = b.grave[1:]
	}
}

// clearProducer removes rename-table references to a retired entry.
// The rename table only ever maps an entry's own destination register
// to it (dispatch and squashAfter set regProd[r] only for the r that
// writesReg reports), so that is the one slot to check.
func (b *Backend) clearProducer(e *entry) {
	if r, ok := e.writesReg(); ok && b.regProd[r] == e {
		b.regProd[r] = nil
	}
	if b.flagProd == e {
		b.flagProd = nil
	}
}

// commit applies e's architectural effects.
func (b *Backend) commit(e *entry) {
	u := &e.uop
	if r, ok := e.writesReg(); ok {
		b.regs[r] = e.val
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
		b.gmem.Write(e.memAddr, e.memSize, e.val)
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

package victim

import (
	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// Fixture is one fully linked victim program, ready for static
// analysis or simulation. The fixtures are the canonical corpus the
// linter (cmd/uoplint) gates, gadget census included: programs this
// repository itself ships as attack targets.
type Fixture struct {
	Name        string
	Description string
	Prog        *asm.Program
	Layout      Layout
}

// FixtureOrg is the code origin the fixtures assemble at.
const FixtureOrg = 0x20000

// Fixtures assembles the canonical victim corpus under l.
func Fixtures(l Layout) []Fixture {
	return []Fixture{
		{
			Name:        "bounds-check",
			Description: "Listing 4: Spectre-v1 style bounds-check victim",
			Prog:        buildBoundsCheck(l),
			Layout:      l,
		},
		{
			Name:        "pci-vpd",
			Description: "§VI-A pci_vpd_find_tag-style victim: transient read + secret-dependent branch",
			Prog:        BuildPCIVPD(l),
			Layout:      l,
		},
		{
			Name:        "indirect-call",
			Description: "Listing 5: authorization-check victim with secret-indexed indirect call",
			Prog:        buildIndirectCall(l),
			Layout:      l,
		},
		{
			Name:        "fn-dispatch",
			Description: "resolvable-dispatch victim: secret branch reached through a program-built function-pointer table",
			Prog:        buildFnDispatch(l),
			Layout:      l,
		},
		{
			Name:        "callee-branch",
			Description: "interprocedural victim: secret branches in callees, passed by register and by spill",
			Prog:        buildCalleeBranch(l),
			Layout:      l,
		},
		{
			Name:        "callee-kill",
			Description: "interprocedural non-victim: callee sanitizes the secret before the caller branches",
			Prog:        buildCalleeKill(l),
			Layout:      l,
		},
		{
			Name:        "jcc-align",
			Description: "Frontal-attack victim: secret branch whose taken path straddles a predecode window",
			Prog:        buildJccAlign(l),
			Layout:      l,
		},
		{
			Name:        "dsb-switch",
			Description: "Leaky-Frontends victim: secret branch whose taken path re-enters legacy decode",
			Prog:        buildDsbSwitch(l),
			Layout:      l,
		},
	}
}

// buildJccAlign assembles the alignment-channel victim the
// secret-dependent-jump-alignment checker gates on: the secret byte
// steers a branch whose taken path places its conditional jump at
// region offset 15 — the two jcc bytes straddle the 16-byte predecode
// window boundary and stall the predecoder on every legacy delivery —
// while the fall-through path's jump sits wholly inside a window. The
// instruction mixes are otherwise NOP padding, so jump alignment is
// the leak the checker must price.
func buildJccAlign(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Xor(isa.R2, isa.R2)
	b.Loadb(RegRet, isa.R2, int64(l.SecretBase))
	b.Cmpi(RegRet, 0)
	b.Jcc(isa.NE, "ja_hot")
	b.Jmp("ja_cold")

	// Fall path: jcc at region offset 12, inside the first window.
	b.Org(FixtureOrg + 0x100)
	b.Label("ja_cold")
	b.Nop(12)
	b.Jcc(isa.EQ, "ja_cold_x")
	b.Label("ja_cold_x")
	b.Halt()

	// Taken path: jcc bytes at offsets 15–16, straddling the boundary.
	b.Org(FixtureOrg + 0x200)
	b.Label("ja_hot")
	b.Nop(12)
	b.Nop(3)
	b.Jcc(isa.EQ, "ja_hot_x")
	b.Label("ja_hot_x")
	b.Halt()
	return b.MustBuild()
}

// buildDsbSwitch assembles the switch-point-channel victim the
// dsb-mite-switch checker gates on: the taken path runs through a
// region over the 18-µop cacheability cap, so a warm traversal still
// pays one DSB→MITE transition there, while the fall-through path
// stays resident end to end. The µop-cache footprints of the two
// directions are what diverges least — the switch count is the signal.
func buildDsbSwitch(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Xor(isa.R2, isa.R2)
	b.Loadb(RegRet, isa.R2, int64(l.SecretBase))
	b.Cmpi(RegRet, 0)
	b.Jcc(isa.NE, "ds_hot")
	b.Jmp("ds_cold")

	// Fall path: 3 µops in one cacheable region.
	b.Org(FixtureOrg + 0x100)
	b.Label("ds_cold")
	b.Nop(15)
	b.Nop(15)
	b.Halt()

	// Taken path: 22 µops packed into one 32-byte region — past the
	// 3-line cap, rejected by the µop cache, MITE-decoded every run.
	b.Org(FixtureOrg + 0x200)
	b.Label("ds_hot")
	for i := 0; i < 20; i++ {
		b.Nop(1)
	}
	b.Nop(11)
	b.Halt()
	return b.MustBuild()
}

func buildBoundsCheck(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	BoundsCheckVictim(b, l)
	return b.MustBuild()
}

// BuildPCIVPD assembles the pci_vpd_find_tag-style gadget with its two
// tag handlers linked in. The handlers land in distinct 32-byte code
// regions with different sizes, so the two sides of the tag branch
// have genuinely different micro-op cache footprints — the property
// the paper's §VI-A attack observes and the static divergence checker
// must flag. Exported because the differential validation test drives
// this exact program through the cycle-level front end: the "main"
// harness calls the routine once and halts, so a simulator run and the
// linted program share every address.
func BuildPCIVPD(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Call("vpd_find_tag")
	b.Halt()
	b.Align(64)
	PCIVPDStyleGadget(b, l)
	// Small-tag handler: one region, a single line of work.
	b.Align(64)
	b.Label("vpd_small")
	b.Movi(RegRet, 1)
	b.Ret()
	// Large-tag handler: placed in different regions with a larger
	// body, so its set/way occupancy diverges from vpd_small's.
	b.Align(64)
	b.Org(b.PC() + 0x140) // skew the region mapping away from vpd_small
	b.Label("vpd_large")
	b.Movi(RegRet, 2)
	b.Addi(RegRet, 40)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Ret()
	return b.MustBuild()
}

func buildIndirectCall(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	IndirectCallVictim(b, l, NoFence)
	return b.MustBuild()
}

// DispatchTable is the program-built function-pointer table the
// fn-dispatch fixture stores its two tag handlers into. Unlike
// FunTable — whose contents exist only in runtime data memory, so the
// Listing 5 dispatch stays a havoc site — both slots are written by
// the program itself, which is what lets the value-set resolution
// prove the dispatch's complete target set.
const DispatchTable = 0x1280

// buildFnDispatch assembles the resolvable-dispatch victim the
// indirect-target resolution gates on: main builds a two-slot handler
// table at DispatchTable, selects a slot with a loaded, masked public
// tag, and calls through it. The secret byte rides in a register
// across the resolved call, and the selected handler branches on it
// with divergent region footprints (the BuildPCIVPD construction) — so
// every finding in the handler exists only because resolution joins
// the handlers' summaries instead of havocking, and each carries a
// call chain through the resolved indirect frame. The decoy handler
// never touches the secret.
func buildFnDispatch(l Layout) *asm.Program {
	const (
		handlerOrg = FixtureOrg + 0x400
		decoyOrg   = FixtureOrg + 0x600
	)
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Xor(isa.R2, isa.R2)
	b.Movi(isa.R4, handlerOrg)
	b.Store(isa.R2, DispatchTable, isa.R4)
	b.Movi(isa.R4, decoyOrg)
	b.Store(isa.R2, DispatchTable+8, isa.R4)
	b.Loadb(isa.R3, isa.R2, int64(l.SecretBase)) // the secret rides in R3
	b.Loadb(isa.R5, isa.R2, int64(l.AuthAddr))   // public tag selects the slot
	b.Andi(isa.R5, 8)
	b.Addi(isa.R5, DispatchTable)
	b.Load(isa.R6, isa.R5, 0)
	b.Calli(isa.R6)
	b.Halt()

	// fd_handler branches on the secret; its hot path is skewed into
	// larger, differently mapped regions so the branch directions have
	// a genuine footprint delta to price.
	b.Org(handlerOrg)
	b.Label("fd_handler")
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "fd_hot")
	b.Movi(isa.R4, 1)
	b.Ret()
	b.Align(64)
	b.Org(b.PC() + 0x140)
	b.Label("fd_hot")
	b.Movi(isa.R4, 2)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Ret()

	// fd_decoy never reads the secret.
	b.Org(decoyOrg)
	b.Label("fd_decoy")
	b.Movi(isa.R4, 3)
	b.Ret()
	return b.MustBuild()
}

// ScratchSlot is a non-secret scratch location (between AuthAddr and
// FunTable) that the interprocedural fixtures use to pass a value
// through memory instead of a register.
const ScratchSlot = 0x1180

// buildCalleeBranch assembles the interprocedural victim the linter's
// call-chain output gates on: main performs a pci-vpd-style guarded
// read at an attacker-influenced offset and hands the loaded byte to
// two callees — once in the argument register and once spilled through
// ScratchSlot — and each callee branches on it. The divergent sides of
// both branches live in distinct, differently sized 64-byte-aligned
// regions (same construction as BuildPCIVPD's tag handlers) so the
// footprint-divergence checker has a genuine micro-op cache delta to
// price across the call boundary, and the transient-window census must
// attribute the load→branch gadgets as cross-function. R2 is zeroed
// before the length load so the guard itself stays clean: every
// finding belongs to a callee.
func buildCalleeBranch(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Xor(isa.R2, isa.R2)
	b.Load(isa.R3, isa.R2, int64(l.ArraySizeAddr)) // len (flushable guard)
	b.Cmp(RegArg, isa.R3)
	b.Jcc(isa.AE, "cb_oob")
	b.Loadb(RegRet, RegArg, int64(l.ArrayBase)) // transient read of the secret
	b.Mov(RegArg, RegRet)                       // pass by argument register
	b.Store(isa.R2, ScratchSlot, RegRet)        // pass by spill slot
	b.Call("cb_reg")
	b.Call("cb_mem")
	b.Halt()
	b.Label("cb_oob")
	b.Movi(RegRet, -1)
	b.Halt()

	// cb_reg branches on the register argument.
	b.Align(64)
	b.Label("cb_reg")
	b.Cmpi(RegArg, 0)
	b.Jcc(isa.NE, "cb_reg_hot")
	b.Movi(isa.R4, 1)
	b.Ret()
	b.Align(64)
	b.Org(b.PC() + 0x140) // skew the hot path's region mapping
	b.Label("cb_reg_hot")
	b.Movi(isa.R4, 2)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Ret()

	// cb_mem reloads the spilled secret and branches on it.
	b.Align(64)
	b.Label("cb_mem")
	b.Xor(isa.R3, isa.R3)
	b.Loadb(isa.R3, isa.R3, ScratchSlot)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "cb_mem_hot")
	b.Movi(isa.R5, 1)
	b.Ret()
	b.Align(64)
	b.Org(b.PC() + 0x140)
	b.Label("cb_mem_hot")
	b.Movi(isa.R5, 2)
	b.Addi(isa.R5, 40)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Nop(8)
	b.Ret()
	return b.MustBuild()
}

// buildCalleeKill assembles the interprocedural non-victim: main loads
// the same secret byte, but the callee zeroes the register before main
// branches on it, so every checker must stay silent. This is the
// false-positive gate for the summary kill-set logic — a linter that
// ignores callee effects (or havocs them) would flag the branch.
func buildCalleeKill(l Layout) *asm.Program {
	b := asm.New(FixtureOrg)
	b.Label("main")
	b.Xor(isa.R2, isa.R2)
	b.Loadb(RegRet, isa.R2, int64(l.SecretBase)) // R0 = secret byte
	b.Call("ck_sanitize")
	b.Cmpi(RegRet, 0)
	b.Jcc(isa.NE, "ck_other")
	b.Movi(RegRet, 1)
	b.Halt()
	b.Align(64)
	b.Label("ck_other")
	b.Movi(RegRet, 2)
	b.Halt()

	// ck_sanitize fully kills the secret it was handed.
	b.Align(64)
	b.Label("ck_sanitize")
	b.Xor(RegRet, RegRet)
	b.Ret()
	return b.MustBuild()
}

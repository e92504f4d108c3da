package staticlint

// gadget_test.go pins ScanGadgets' transient-window census: the
// µop-cache and Spectre-v1 gadget classes it must find, the taint
// kills (overwrites, zeroing idioms, RDTSC) that must silence it, and
// the class-prevalence ordering of the paper's §VI-A census.

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/ref"
	"deaduops/internal/victim"
)

// countGadgets scans p under the default configuration and tallies
// the hits by class.
func countGadgets(p *asm.Program) map[GadgetKind]int {
	c := map[GadgetKind]int{}
	for _, h := range ScanGadgets(p, DefaultConfig()) {
		c[h.Kind]++
	}
	return c
}

func TestFindsUopCacheGadgetInVictim(t *testing.T) {
	// The Listing 4 victim alone is NOT a µop-cache gadget (no
	// dependent branch), but the pci_vpd_find_tag-style victim is.
	b := asm.New(0x20000)
	victim.PCIVPDStyleGadget(b, victim.DefaultLayout())
	b.Label("vpd_large")
	b.Ret()
	b.Label("vpd_small")
	b.Ret()
	p := b.MustBuild()

	found := ScanGadgets(p, DefaultConfig())
	if countGadgets(p)[GadgetUopCache] == 0 {
		t.Fatalf("scanner missed the pci_vpd-style gadget: %+v", found)
	}
}

func TestFindsSpectreV1DoubleLoad(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out") // guard
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Shli(isa.R2, 6)
	b.Loadb(isa.R3, isa.R2, 0x8000) // tainted address: double load
	b.Label("out")
	b.Halt()
	p := b.MustBuild()

	c := countGadgets(p)
	if c[GadgetSpectreV1] == 0 {
		t.Error("scanner missed the double-load gadget")
	}
}

func TestFindsIndirectBranchSink(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Load(isa.R2, isa.R1, 0x2000)
	b.Jmpi(isa.R2) // tainted indirect target
	b.Label("out")
	b.Halt()
	p := b.MustBuild()
	c := countGadgets(p)
	if c[GadgetUopCache] == 0 {
		t.Error("scanner missed the indirect-branch sink")
	}
}

func TestNoFalsePositiveWithoutDependence(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Load(isa.R2, isa.R1, 0x2000) // guarded load…
	b.Movi(isa.R3, 1)              // …but nothing depends on it
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	p := b.MustBuild()
	c := countGadgets(p)
	if c[GadgetUopCache] != 0 || c[GadgetSpectreV1] != 0 {
		t.Errorf("false positives: %+v", c)
	}
}

func TestMoviClearsTaint(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Load(isa.R2, isa.R1, 0x2000)
	b.Movi(isa.R2, 5) // overwrite kills the taint
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	if c := countGadgets(b.MustBuild()); c[GadgetUopCache] != 0 {
		t.Errorf("taint survived an overwrite: %+v", c)
	}
}

func TestZeroIdiomKillsTaint(t *testing.T) {
	// Regression: the original linear scanner propagated taint through
	// the xor-self zeroing idiom (dst stays "tainted" because its own
	// operand is), flagging a spurious µop-cache gadget here — the
	// branch depends on the constant 0, not the guarded load. The
	// reaching-definitions engine kills the definition on overwrite.
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Xor(isa.R2, isa.R2) // r2 = 0: the load's definition dies here
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	if c := countGadgets(b.MustBuild()); c[GadgetUopCache] != 0 {
		t.Errorf("taint survived xor-self overwrite: %+v", c)
	}
}

func TestSubSelfKillsTaint(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Sub(isa.R2, isa.R2) // r2 = 0
	b.Shli(isa.R2, 6)
	b.Loadb(isa.R3, isa.R2, 0x8000) // address is the constant 0x8000
	b.Label("out")
	b.Halt()
	if c := countGadgets(b.MustBuild()); c[GadgetSpectreV1] != 0 {
		t.Errorf("taint survived sub-self overwrite: %+v", c)
	}
}

func TestRdtscOverwriteKillsTaint(t *testing.T) {
	// Regression: RDTSC overwrites its destination with the cycle
	// counter; the original scanner had no case for it, so the guarded
	// load's taint leaked through to the branch.
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Rdtsc(isa.R2) // overwrites r2: definition killed
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	if c := countGadgets(b.MustBuild()); c[GadgetUopCache] != 0 {
		t.Errorf("taint survived rdtsc overwrite: %+v", c)
	}
}

func TestTaintThroughResolvedMemory(t *testing.T) {
	// Precision gain over the linear scanner: a guarded load spilled
	// to a resolved address and reloaded keeps its original source
	// attribution, so the finding names the first (guarded) load.
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	loadAddr := b.PC()
	b.Loadb(isa.R2, isa.R1, 0x2000) // the guarded load
	b.Movi(isa.R3, 0x5000)
	b.Store(isa.R3, 0, isa.R2) // spill to [0x5000]
	b.Movi(isa.R2, 0)          // kill the register copy
	b.Load(isa.R4, isa.R3, 0)  // reload from [0x5000]
	b.Cmpi(isa.R4, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	found := ScanGadgets(b.MustBuild(), DefaultConfig())
	ok := false
	for _, f := range found {
		if f.Kind == GadgetUopCache && f.Load == loadAddr {
			ok = true
		}
	}
	if !ok {
		t.Errorf("taint lost through memory spill/reload: %+v", found)
	}
}

func TestTaintFlowsThroughALU(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.AE, "out")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Mov(isa.R3, isa.R2)
	b.And(isa.R4, isa.R3) // reg-form ALU propagates
	b.Cmpi(isa.R4, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	if c := countGadgets(b.MustBuild()); c[GadgetUopCache] == 0 {
		t.Error("taint lost through mov+alu chain")
	}
}

func TestCensusOnIdiomaticCorpus(t *testing.T) {
	// An in-repo analog of the paper's LGTM census: a corpus of
	// idiomatic bounds-checked library routines. The µop-cache gadget
	// class (guarded load → dependent branch) is structurally easier
	// to satisfy than the classic double-load, so it dominates —
	// the paper counts 100 vs 19 in torvalds/linux.
	p := buildIdiomaticCorpus(t)
	c := countGadgets(p)
	t.Logf("corpus census: µop-cache %d, spectre-v1 %d", c[GadgetUopCache], c[GadgetSpectreV1])
	if c[GadgetUopCache] <= c[GadgetSpectreV1] {
		t.Errorf("census inverted: uop-cache %d ≤ spectre-v1 %d", c[GadgetUopCache], c[GadgetSpectreV1])
	}
	if c[GadgetUopCache] < 4 || c[GadgetSpectreV1] < 1 {
		t.Errorf("corpus counts too low: %+v", c)
	}
}

// buildIdiomaticCorpus assembles routines mirroring the kernel idioms
// the paper's census finds: tag parsers, flag checks, table walks.
func buildIdiomaticCorpus(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.New(0x10000)
	emitGuard := func(out string) {
		b.Cmpi(isa.R1, 256)
		b.Jcc(isa.AE, out)
	}

	// 1. Tag parser: load byte, mask, branch on tag (µop-cache class).
	b.Label("parse_tag")
	emitGuard("parse_out")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Andi(isa.R2, 0x80)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "parse_out")
	b.Label("parse_out")
	b.Ret()

	// 2. Flag check: load word, test bit, branch (µop-cache class).
	b.Align(64)
	b.Label("check_flags")
	emitGuard("flags_out")
	b.Load(isa.R3, isa.R1, 0x3000)
	b.Testi(isa.R3, 4)
	b.Jcc(isa.EQ, "flags_out")
	b.Label("flags_out")
	b.Ret()

	// 3. State machine step: load state, compare, branch (µop-cache).
	b.Align(64)
	b.Label("fsm_step")
	emitGuard("fsm_out")
	b.Loadb(isa.R4, isa.R1, 0x4000)
	b.Cmpi(isa.R4, 7)
	b.Jcc(isa.EQ, "fsm_out")
	b.Label("fsm_out")
	b.Ret()

	// 4. Handler dispatch: load index, indirect call (µop-cache).
	b.Align(64)
	b.Label("dispatch")
	emitGuard("disp_out")
	b.Load(isa.R5, isa.R1, 0x5000)
	b.Jmpi(isa.R5)
	b.Label("disp_out")
	b.Ret()

	// 5. Length-prefixed copy setup: load length, branch (µop-cache).
	b.Align(64)
	b.Label("copy_len")
	emitGuard("copy_out")
	b.Loadb(isa.R6, isa.R1, 0x6000)
	b.Cmpi(isa.R6, 64)
	b.Jcc(isa.GT, "copy_out")
	b.Label("copy_out")
	b.Ret()

	// 6. Classic double-load table walk (spectre-v1 class; its value is
	// consumed arithmetically, not by a branch).
	b.Align(64)
	b.Label("table_walk")
	emitGuard("walk_out")
	b.Loadb(isa.R7, isa.R1, 0x7000)
	b.Shli(isa.R7, 6)
	b.Loadb(isa.R8, isa.R7, 0x8000)
	b.Add(isa.R9, isa.R8)
	b.Label("walk_out")
	b.Ret()

	// 7. Benign: guarded load consumed by a store only (no gadget).
	b.Align(64)
	b.Label("benign_copy")
	emitGuard("benign_out")
	b.Loadb(isa.R10, isa.R1, 0x9000)
	b.Storeb(isa.R2, 0xA000, isa.R10)
	b.Label("benign_out")
	b.Ret()

	return b.MustBuild()
}

func TestScanRandomProgramsSmoke(t *testing.T) {
	// Random programs must scan without panicking; gadget density in
	// unstructured code is incidental.
	cfg := ref.DefaultGenConfig()
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := ref.Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ScanGadgets(p, DefaultConfig())
	}
}

package ref

import (
	"bytes"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
)

// runBoth executes prog on the reference interpreter and on a
// pipelined core built from ccfg, from identical initial state, and
// returns both machines.
func runBoth(t *testing.T, prog *asm.Program, gcfg GenConfig, ccfg cpu.Config) (*Machine, *cpu.CPU) {
	t.Helper()
	ccfg.KernelEntry = gcfg.KernelEntry

	// Identical initial memory: a deterministic pattern in the scratch
	// window.
	pattern := scratchPattern(gcfg.ScratchSize)

	refMem := cpu.NewMemory(ccfg.MemSize)
	refMem.WriteBytes(gcfg.ScratchBase, pattern)
	m := New(prog, refMem, gcfg.KernelEntry)
	m.Regs[isa.R15] = int64(ccfg.StackTop)
	if err := m.Run(prog.Entry, 2_000_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	c := cpu.New(ccfg)
	c.LoadProgram(prog)
	c.Mem().WriteBytes(gcfg.ScratchBase, pattern)
	res := c.Run(0, prog.Entry, 50_000_000)
	if res.TimedOut {
		t.Fatal("pipelined run timed out")
	}
	return m, c
}

// compareState asserts architectural equivalence.
func compareState(t *testing.T, seed uint64, m *Machine, c *cpu.CPU, gcfg GenConfig) {
	t.Helper()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if ref, pipe := m.Regs[r], c.Reg(0, r); ref != pipe {
			t.Errorf("seed %d: %v: ref %#x, pipeline %#x", seed, r, ref, pipe)
		}
	}
	refScr := make([]byte, gcfg.ScratchSize)
	for i := range refScr {
		refScr[i] = byte(m.mem.(*cpu.Memory).Read(gcfg.ScratchBase+uint64(i), 1))
	}
	pipeScr := c.Mem().ReadBytes(gcfg.ScratchBase, int(gcfg.ScratchSize))
	if !bytes.Equal(refScr, pipeScr) {
		for i := range refScr {
			if refScr[i] != pipeScr[i] {
				t.Errorf("seed %d: scratch[%#x]: ref %#x, pipeline %#x",
					seed, i, refScr[i], pipeScr[i])
				break
			}
		}
	}
	if m.KernelMode != c.Backend(0).KernelMode() {
		t.Errorf("seed %d: privilege mismatch", seed)
	}
}

// TestDifferentialRandomPrograms is the core validation of the
// pipelined core: across many random programs — with speculation,
// squashes, fences, syscalls, and memory traffic — the out-of-order
// engine must be architecturally indistinguishable from the sequential
// reference.
func TestDifferentialRandomPrograms(t *testing.T) {
	gcfg := DefaultGenConfig()
	for seed := uint64(1); seed <= 60; seed++ {
		prog, err := Generate(seed, gcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, c := runBoth(t, prog, gcfg, cpu.Intel())
		compareState(t, seed, m, c, gcfg)
	}
}

// TestDifferentialLargePrograms stresses deeper programs (more blocks,
// more memory traffic) at a handful of seeds.
func TestDifferentialLargePrograms(t *testing.T) {
	gcfg := DefaultGenConfig()
	gcfg.Blocks = 20
	gcfg.OpsPerBlock = 16
	for seed := uint64(100); seed < 110; seed++ {
		prog, err := Generate(seed, gcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, c := runBoth(t, prog, gcfg, cpu.Intel())
		compareState(t, seed, m, c, gcfg)
	}
}

// FuzzCoreVsRef is the differential contract as a fuzz target: a
// random generated program, run under any profile with cycle skipping
// on or off, must leave identical registers, memory and privilege on
// the pipelined core and the reference interpreter.
func FuzzCoreVsRef(f *testing.F) {
	f.Add(uint64(1), uint8(0), true)
	f.Add(uint64(7), uint8(3), false)
	f.Add(uint64(42), uint8(4), true)
	profiles := profile.All()
	gcfg := DefaultGenConfig()
	f.Fuzz(func(t *testing.T, seed uint64, p uint8, skip bool) {
		prog, err := Generate(seed, gcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ccfg := cpu.FromProfile(profiles[int(p)%len(profiles)])
		ccfg.DisableCycleSkip = !skip
		m, c := runBoth(t, prog, gcfg, ccfg)
		compareState(t, seed, m, c, gcfg)
	})
}

// TestReferenceBasics sanity-checks the interpreter itself on a
// hand-written program.
func TestReferenceBasics(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 5)
	b.Movi(isa.R2, 7)
	b.Add(isa.R1, isa.R2)
	b.Cmpi(isa.R1, 12)
	b.Jcc(isa.EQ, "ok")
	b.Movi(isa.R3, 111)
	b.Label("ok")
	b.Halt()
	prog := b.MustBuild()
	mem := cpu.NewMemory(1 << 16)
	m := New(prog, mem, 0x4000)
	if err := m.Run(prog.Entry, 1000); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.R1] != 12 || m.Regs[isa.R3] != 0 {
		t.Errorf("regs %v", m.Regs[:4])
	}
	if !m.Halted() {
		t.Error("not halted")
	}
}

// TestReferenceErrors covers the interpreter's failure modes.
func TestReferenceErrors(t *testing.T) {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Jmp("loop")
	prog := b.MustBuild()
	m := New(prog, cpu.NewMemory(1<<12), 0x4000)
	if err := m.Run(prog.Entry, 100); err == nil {
		t.Error("infinite loop not caught by step limit")
	}
	m2 := New(prog, cpu.NewMemory(1<<12), 0x4000)
	if err := m2.Run(0x9999, 100); err == nil {
		t.Error("unmapped entry accepted")
	}
}

// TestGenerateDeterministic ensures generation is reproducible.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Insts {
		if a.Insts[i].Op != b.Insts[i].Op || a.Insts[i].Imm != b.Insts[i].Imm {
			t.Fatalf("inst %d differs", i)
		}
	}
	c, err := Generate(8, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() == c.Size() {
		// Same size is possible but identical streams are not.
		same := true
		for i := range a.Insts {
			if a.Insts[i].Op != c.Insts[i].Op || a.Insts[i].Imm != c.Insts[i].Imm {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds generated identical programs")
		}
	}
}

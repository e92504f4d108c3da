package ref

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
)

// cyclesGolden pins the pipelined core's timing, not just its
// architectural result: every run's cycle count, retired count, full
// counter snapshot and cache-hierarchy statistics. Scheduler and data
// structure changes must leave it byte-identical.
const cyclesGolden = "testdata/cycles.golden"

// TestCyclesGolden replays the generated corpus and the hand-written
// programs on every profile, with cycle skipping on and off, plus
// short SMT windows, and compares the rendered timings with the golden.
func TestCyclesGolden(t *testing.T) {
	got := renderCycles(t)
	want, err := os.ReadFile(cyclesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, run rendered %d", len(wl), len(gl))
}

// scratchPattern is the deterministic initial content of the
// generator's scratch window.
func scratchPattern(n uint64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*37 + 11)
	}
	return p
}

// renderCycles runs the golden workload and renders one line per run.
// All cores come from one arena, so recycled state must behave exactly
// like fresh state.
func renderCycles(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	arena := &cpu.Arena{}
	gcfg := DefaultGenConfig()
	big := gcfg
	big.Blocks, big.OpsPerBlock = 20, 16
	type genCase struct {
		name string
		cfg  GenConfig
		seed uint64
	}
	var gens []genCase
	for seed := uint64(1); seed <= 30; seed++ {
		gens = append(gens, genCase{"gen", gcfg, seed})
	}
	for seed := uint64(100); seed < 106; seed++ {
		gens = append(gens, genCase{"big", big, seed})
	}
	progs := map[string]*asm.Program{}
	var names []string
	for _, g := range gens {
		prog, err := Generate(g.seed, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s-%d", g.name, g.seed)
		progs[name] = prog
		names = append(names, name)
	}
	for _, h := range handPrograms(gcfg.KernelEntry) {
		progs[h.name] = h.prog
		names = append(names, h.name)
	}

	for _, p := range profile.All() {
		for _, skip := range []bool{true, false} {
			cfg := cpu.FromProfile(p)
			cfg.KernelEntry = gcfg.KernelEntry
			cfg.DisableCycleSkip = !skip
			for _, name := range names {
				runProgram(t, &sb, arena, fmt.Sprintf("%s skip=%v %s", p.Name, skip, name), cfg, progs[name], gcfg)
			}
		}
	}
	// Defense configurations change the backend's load and commit
	// paths and the privilege-switch hooks.
	for _, v := range []struct {
		name string
		mod  func(*cpu.Config)
	}{
		{"invisible", func(c *cpu.Config) { c.InvisibleSpeculation = true }},
		{"flush-on-switch", func(c *cpu.Config) { c.Mitigation = cpu.MitigationFlushOnPrivilegeSwitch }},
		{"partition", func(c *cpu.Config) { c.Mitigation = cpu.MitigationPrivilegePartition }},
	} {
		cfg := cpu.Intel()
		cfg.KernelEntry = gcfg.KernelEntry
		v.mod(&cfg)
		for _, name := range names {
			runProgram(t, &sb, arena, fmt.Sprintf("%s %s", v.name, name), cfg, progs[name], gcfg)
		}
	}

	// Short SMT windows: a measured thread against a sibling that
	// spins on loads, stopping on the primary; and two generated
	// programs that both run to HALT.
	spin := spinProgram()
	for _, p := range profile.All() {
		cfg := cpu.FromProfile(p)
		cfg.KernelEntry = gcfg.KernelEntry
		for _, name := range []string{"gen-1", "gen-2", "lfence", "storeload"} {
			c := cpu.NewWith(cfg, arena)
			both, err := asm.Merge(progs[name], spin)
			if err != nil {
				t.Fatal(err)
			}
			c.LoadProgram(both)
			c.Mem().WriteBytes(gcfg.ScratchBase, scratchPattern(gcfg.ScratchSize))
			res := c.RunSMTPrimary(progs[name].Entry, spin.Entry, 20_000)
			for th := range res {
				fmt.Fprintf(&sb, "%s smt-primary %s t%d %s\n", p.Name, name, th, renderResult(res[th]))
			}
			fmt.Fprintf(&sb, "%s smt-primary %s hier %s\n", p.Name, name, renderHier(c.Hierarchy().Stats()))
		}
		c := cpu.NewWith(cfg, arena)
		c.LoadProgram(progs["gen-3"])
		c.Mem().WriteBytes(gcfg.ScratchBase, scratchPattern(gcfg.ScratchSize))
		res := c.RunSMT(progs["gen-3"].Entry, progs["gen-3"].Entry, 200_000)
		for th := range res {
			fmt.Fprintf(&sb, "%s smt gen-3 t%d %s\n", p.Name, th, renderResult(res[th]))
		}
		fmt.Fprintf(&sb, "%s smt gen-3 hier %s\n", p.Name, renderHier(c.Hierarchy().Stats()))
	}
	return sb.String()
}

// runProgram runs prog twice on one fresh core (cold, then warm) and
// renders both runs.
func runProgram(t *testing.T, sb *strings.Builder, arena *cpu.Arena, label string, cfg cpu.Config, prog *asm.Program, gcfg GenConfig) {
	t.Helper()
	c := cpu.NewWith(cfg, arena)
	c.LoadProgram(prog)
	c.Mem().WriteBytes(gcfg.ScratchBase, scratchPattern(gcfg.ScratchSize))
	for run := 0; run < 2; run++ {
		res := c.Run(0, prog.Entry, 2_000_000)
		if res.TimedOut {
			t.Fatalf("%s run %d timed out", label, run)
		}
		fmt.Fprintf(sb, "%s run%d %s hier %s\n", label, run, renderResult(res), renderHier(c.Hierarchy().Stats()))
	}
}

func renderResult(r cpu.RunResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d retired=%d timedout=%v ctr", r.Cycles, r.Retired, r.TimedOut)
	for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
		fmt.Fprintf(&sb, " %d", r.Counters.Get(e))
	}
	return sb.String()
}

func renderHier(s mem.HierarchyStats) string {
	var sb strings.Builder
	for _, c := range []mem.CacheStats{s.L1I, s.L1D, s.L2, s.LLC, s.ITLB} {
		fmt.Fprintf(&sb, "%d/%d/%d/%d ", c.Accesses, c.Hits, c.Misses, c.Evicts)
	}
	fmt.Fprintf(&sb, "llc=%d/%d", s.LLCRefs, s.LLCMisses)
	return sb.String()
}

// spinProgram is an endless sibling workload of loads and ALU work,
// placed clear of the generated programs' code.
func spinProgram() *asm.Program {
	b := asm.New(0x30000)
	b.Movi(isa.R1, 0x9000)
	b.Label("spin")
	b.Load(isa.R2, isa.R1, 0)
	b.Addi(isa.R2, 1)
	b.Store(isa.R1, 0x40, isa.R2)
	b.Pause()
	b.Jmp("spin")
	return b.MustBuild()
}

type handProgram struct {
	name string
	prog *asm.Program
}

// handPrograms covers the scheduling paths the generator never (or
// rarely) emits: LFENCE, CPUID, store→load ordering behind a
// misprediction, SYSCALL/SYSRET, CALL/RET and indirect branches, and
// the remaining special instructions.
func handPrograms(kernelEntry uint64) []handProgram {
	var out []handProgram
	add := func(name string, b *asm.Builder) {
		out = append(out, handProgram{name, b.MustBuild()})
	}

	b := asm.New(0x10000)
	b.Movi(isa.R1, 0x8000)
	b.Movi(isa.R12, 6)
	b.Label("loop")
	b.Load(isa.R2, isa.R1, 0)
	b.Addi(isa.R2, 3)
	b.Lfence()
	b.Store(isa.R1, 8, isa.R2)
	b.Load(isa.R3, isa.R1, 8)
	b.Rdtsc(isa.R4)
	b.Lfence()
	b.Rdtsc(isa.R5)
	b.Sub(isa.R5, isa.R4)
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	add("lfence", b)

	b = asm.New(0x10000)
	b.Movi(isa.R12, 4)
	b.Label("loop")
	b.Addi(isa.R1, 1)
	b.Cpuid()
	b.Addi(isa.R2, 2)
	b.Call("fn")
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	b.Align(64)
	b.Label("fn")
	b.Cpuid()
	b.Addi(isa.R3, 1)
	b.Ret()
	add("cpuid", b)

	// The guard load is flushed every iteration, so the loop-exit
	// branch resolves late; on the final iteration the predicted
	// fall-through path (a store then a dependent load) is squashed.
	b = asm.New(0x10000)
	b.Movi(isa.R1, 0x8000)
	b.Movi(isa.R12, 8)
	b.Label("loop")
	b.Store(isa.R1, 0x100, isa.R12)
	b.Clflush(isa.R1, 0x100)
	b.Load(isa.R3, isa.R1, 0x100)
	b.Cmpi(isa.R3, 1)
	b.Jcc(isa.EQ, "done")
	b.Store(isa.R1, 0x200, isa.R3)
	b.Load(isa.R6, isa.R1, 0x200)
	b.Storeb(isa.R1, 0x208, isa.R6)
	b.Loadb(isa.R7, isa.R1, 0x208)
	b.Add(isa.R8, isa.R7)
	b.Testi(isa.R3, 2)
	b.Jcc(isa.NE, "odd")
	b.Addi(isa.R9, 1)
	b.Label("odd")
	b.Subi(isa.R12, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	add("storeload", b)

	b = asm.New(0x10000)
	b.Movi(isa.R12, 3)
	b.Label("loop")
	b.Movi(isa.R1, 0x8000)
	b.Store(isa.R1, 0, isa.R12)
	b.Syscall()
	b.Load(isa.R2, isa.R1, 0x10)
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	b.Org(kernelEntry)
	b.Movi(isa.R1, 0x8000)
	b.Load(isa.R3, isa.R1, 0)
	b.Addi(isa.R3, 5)
	b.Store(isa.R1, 0x10, isa.R3)
	b.Sysret()
	add("syscall", b)

	b = asm.New(0x10000)
	b.Movi(isa.R12, 5)
	b.Label("loop")
	b.Call("fa")
	b.Movi(isa.R1, 0x12000)
	b.Calli(isa.R1)
	b.Movi(isa.R2, 0x12400)
	b.Jmpi(isa.R2)
	b.Label("back")
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	b.Align(64)
	b.Label("fa")
	b.Addi(isa.R3, 1)
	b.Call("fc")
	b.Ret()
	b.Label("fc")
	b.Xor(isa.R4, isa.R3)
	b.Ret()
	b.Org(0x12000)
	b.Addi(isa.R5, 2)
	b.Ret()
	b.Org(0x12400)
	b.Addi(isa.R6, 1)
	b.Jmp("back")
	add("calls", b)

	b = asm.New(0x10000)
	b.Movi(isa.R1, 0x8000)
	b.Movi(isa.R12, 3)
	b.Label("loop")
	b.Pause()
	b.Clflush(isa.R1, 0)
	b.Load(isa.R2, isa.R1, 0)
	b.Msrom(6)
	b.NopLCP(4)
	b.Rdtsc(isa.R3)
	b.ItlbFlush()
	b.Nop(7)
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	add("misc", b)
	return out
}

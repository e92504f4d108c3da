package cpu

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
)

// arenaProgram builds one of the reuse test's workloads. Every program
// walks an overlapping data window, so lines or counters left over from
// the previous core would turn misses into hits.
func arenaProgram(kind int) *asm.Program {
	b := asm.New(0x10000)
	b.Movi(isa.R1, 0x20000)
	b.Movi(isa.R12, 96)
	b.Label("loop")
	switch kind {
	case 0: // strided loads and stores across many sets
		b.Load(isa.R2, isa.R1, 0)
		b.Addi(isa.R2, 1)
		b.Store(isa.R1, 8, isa.R2)
		b.Addi(isa.R1, 64)
	case 1: // calls, and a wider stride from the other end
		b.Call("fn")
		b.Load(isa.R3, isa.R1, 0x1800)
		b.Subi(isa.R1, 128)
	case 2: // privilege crossings, and a clflush of the loop's own code
		b.Syscall()
		b.Movi(isa.R4, 0x10000)
		b.Clflush(isa.R4, 0)
		b.Load(isa.R2, isa.R1, 0)
		b.Addi(isa.R1, 192)
	case 3: // a data-dependent branch on flushed data, and iTLB flushes
		b.Clflush(isa.R1, 0)
		b.Load(isa.R2, isa.R1, 0)
		b.Testi(isa.R2, 1)
		b.Jcc(isa.NE, "skip")
		b.Load(isa.R3, isa.R1, 0x400)
		b.Label("skip")
		b.ItlbFlush()
		b.Addi(isa.R1, 64)
	}
	b.Subi(isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	b.Align(64)
	b.Label("fn")
	b.Addi(isa.R5, 3)
	b.Ret()
	b.Org(0x40_0000)
	b.Addi(isa.R6, 1)
	b.Sysret()
	return b.MustBuild()
}

// TestArenaReuseMatchesFresh builds a sequence of cores from one arena
// — different profiles, a mitigation, invisible speculation, and a
// different hierarchy geometry in between — and requires every run to
// match a core built without an arena: same RunResult, same hierarchy
// statistics. A recycled memory image or hierarchy that kept any of the
// previous core's lines, clocks, counters or hooks would show here.
func TestArenaReuseMatchesFresh(t *testing.T) {
	mitigated := Intel()
	mitigated.Mitigation = MitigationFlushOnPrivilegeSwitch
	invisible := Intel()
	invisible.InvisibleSpeculation = true
	smallLLC := AMD()
	smallLLC.Hierarchy.LLC = mem.CacheConfig{Sets: 512, Ways: 4, LineSize: 64, Latency: 30}
	steps := []struct {
		name string
		cfg  Config
		prog int
	}{
		{"intel", Intel(), 0},
		{"amd", AMD(), 1},
		{"flush-on-switch", mitigated, 2},
		{"invisible", invisible, 3},
		{"small-llc", smallLLC, 0},
		{"intel-again", Intel(), 2},
		{"amd-again", AMD(), 3},
	}
	arena := &Arena{}
	for _, st := range steps {
		p := arenaProgram(st.prog)
		reused, fresh := NewWith(st.cfg, arena), New(st.cfg)
		for _, c := range []*CPU{reused, fresh} {
			c.LoadProgram(p)
			c.Mem().Write(0x20000, 8, 0x55)
		}
		for run := 0; run < 2; run++ {
			got := reused.Run(0, p.Entry, testMaxCycles)
			want := fresh.Run(0, p.Entry, testMaxCycles)
			if want.TimedOut {
				t.Fatalf("%s run %d timed out", st.name, run)
			}
			if got != want {
				t.Errorf("%s run %d: arena core %+v, fresh core %+v", st.name, run, got, want)
			}
			if g, w := reused.Hierarchy().Stats(), fresh.Hierarchy().Stats(); g != w {
				t.Errorf("%s run %d: arena hierarchy %+v, fresh %+v", st.name, run, g, w)
			}
		}
	}
}

package cpu

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// memoProgs builds two different programs at the same addresses, so a
// fetch memo left over from one would decode the other's entries from
// the wrong instructions. The PAUSE in B's loop forces a DSB miss (and
// a memoized decode) on every iteration.
func memoProgs() (a, b *asm.Program) {
	pa := asm.New(0x1000)
	pa.Movi(isa.R1, 0)
	pa.Movi(isa.R2, 40)
	pa.Label("loop")
	pa.Add(isa.R1, isa.R2)
	pa.Nop(4)
	pa.Subi(isa.R2, 1)
	pa.Cmpi(isa.R2, 0)
	pa.Jcc(isa.NE, "loop")
	pa.Halt()

	pb := asm.New(0x1000)
	pb.Movi(isa.R1, 7)
	pb.Movi(isa.R2, 25)
	pb.Label("loop")
	pb.Pause()
	pb.Xori(isa.R1, 3)
	pb.Nop(2)
	pb.Shli(isa.R1, 1)
	pb.Subi(isa.R2, 1)
	pb.Cmpi(isa.R2, 0)
	pb.Jcc(isa.NE, "loop")
	pb.Halt()
	return pa.MustBuild(), pb.MustBuild()
}

// memoRun is what one program's runs observe: every RunResult and the
// result register after each.
type memoRun struct {
	res [3]RunResult
	r1  [3]int64
}

func runThrice(t *testing.T, c *CPU, p *asm.Program) memoRun {
	t.Helper()
	var out memoRun
	for i := range out.res {
		out.res[i] = c.Run(0, p.Entry, testMaxCycles)
		if out.res[i].TimedOut {
			t.Fatal("run timed out")
		}
		out.r1[i] = c.Reg(0, isa.R1)
	}
	return out
}

func memoRunsEqual(a, b memoRun) bool {
	for i := range a.res {
		if !runsEqual(a.res[i], b.res[i]) || a.r1[i] != b.r1[i] {
			return false
		}
	}
	return true
}

// TestLoadProgramSwitchMatchesFreshCore loads two programs built at the
// same addresses in turn (A, B, A) on one core, rewound to a pristine
// checkpoint before each load, and requires counters and results
// identical to a fresh core per program: the fetch memo must never
// serve one program's decode to the other.
func TestLoadProgramSwitchMatchesFreshCore(t *testing.T) {
	pa, pb := memoProgs()
	fresh := func(p *asm.Program) memoRun {
		c := New(Intel())
		c.LoadProgram(p)
		return runThrice(t, c, p)
	}
	want := map[*asm.Program]memoRun{pa: fresh(pa), pb: fresh(pb)}
	if memoRunsEqual(want[pa], want[pb]) {
		t.Fatal("the two programs are indistinguishable")
	}

	c := New(Intel())
	var pristine Checkpoint
	c.Checkpoint(&pristine)
	for i, p := range []*asm.Program{pa, pb, pa} {
		c.Restore(&pristine)
		c.LoadProgram(p)
		if got := runThrice(t, c, p); !memoRunsEqual(got, want[p]) {
			t.Fatalf("load %d: diverged from a fresh core:\ngot  %+v\nwant %+v", i, got, want[p])
		}
	}
}

// TestRestoreAcrossProgramSwitch takes a checkpoint under program A,
// loads and runs program B, then restores the checkpoint: the runs
// that follow must match the straight-line runs of A from the
// checkpoint.
func TestRestoreAcrossProgramSwitch(t *testing.T) {
	pa, pb := memoProgs()

	ref := New(Intel())
	ref.LoadProgram(pa)
	ref.Run(0, pa.Entry, testMaxCycles)
	want := runThrice(t, ref, pa)

	c := New(Intel())
	c.LoadProgram(pa)
	c.Run(0, pa.Entry, testMaxCycles)
	var ck Checkpoint
	c.Checkpoint(&ck)
	c.LoadProgram(pb)
	runThrice(t, c, pb)
	c.Restore(&ck)
	if got := runThrice(t, c, pa); !memoRunsEqual(got, want) {
		t.Fatalf("restore after a program switch diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

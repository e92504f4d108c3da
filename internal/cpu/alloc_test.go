package cpu

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// TestSteadyStateRunAllocs pins the steady-state cycle loop to zero
// heap allocations. After warmup the µop cache holds the loop's trace,
// the predictors are trained, and every pooled buffer — the IDQ, the
// DSB stream buffer, the reusable fetch group, the ROB's entry ring and
// the scheduler's worklists — has grown to capacity, so a whole Run (including the final mispredicted loop exit and its
// squash) must not touch the heap. Sweep throughput depends on this
// invariant; a regression here silently multiplies GC pressure across
// every parallel worker.
func TestSteadyStateRunAllocs(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0)
	b.Movi(isa.R2, 64)
	b.Label("loop")
	b.Add(isa.R1, isa.R2)
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	p := b.MustBuild()

	c := New(Intel())
	c.LoadProgram(p)
	for i := 0; i < 5; i++ {
		if res := c.Run(0, p.Entry, testMaxCycles); res.TimedOut {
			t.Fatal("warmup run timed out")
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.Run(0, p.Entry, testMaxCycles)
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSteadyStateMITEAllocs pins the DSB-miss path to zero heap
// allocations. The loop's PAUSE makes its region's trace uncacheable,
// so every iteration switches DSB→MITE and decodes the group again;
// after warmup the front end's per-entry fetch memo already holds the
// group's static run, MITE schedule and trace, so a whole Run must not
// touch the heap.
func TestSteadyStateMITEAllocs(t *testing.T) {
	const iters = 64
	b := asm.New(0x1000)
	b.Movi(isa.R2, iters)
	b.Label("loop")
	b.Pause()
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	p := b.MustBuild()

	c := New(Intel())
	c.LoadProgram(p)
	for i := 0; i < 5; i++ {
		if res := c.Run(0, p.Entry, testMaxCycles); res.TimedOut {
			t.Fatal("warmup run timed out")
		}
	}
	res := c.Run(0, p.Entry, testMaxCycles)
	if n := res.Counters.Get(perfctr.DSB2MITESwitches); n < iters {
		t.Fatalf("run switched DSB→MITE %d times, want at least one per iteration (%d)", n, iters)
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.Run(0, p.Entry, testMaxCycles)
	})
	if allocs != 0 {
		t.Errorf("steady-state MITE Run allocates %.1f objects per run, want 0", allocs)
	}
}

// Benchmarks for the checkpointed measurement paths. One difftest
// point is measured on a fresh PointRunner per iteration with cycle
// skip disabled (checkpoint=off) and on one reused PointRunner whose
// repeat measurements fork from trained checkpoints, plus the
// event-driven fast path (checkpoint=on). The =on variant reports its
// speedup over an inline fresh-runner baseline and the fraction of
// simulated cycles the fast path crossed in single steps. One channel
// calibration is measured with cycle skip disabled.
package deaduops_test

import (
	"testing"
	"time"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/staticlint/difftest"
)

// difftestPointSeed picks one mid-corpus victim; any seed works, the
// protocols are equivalent on all of them (TestPointRunnerMatchesMeasure).
const difftestPointSeed = 7

// freshPoint is one point measured without checkpoint reuse: a fresh
// PointRunner (one core, one training prefix per direction) measuring
// both directions once.
func freshPoint(b *testing.B, h *difftest.Harness, v *difftest.Victim, a *cpu.Arena) {
	b.Helper()
	r := h.NewPointRunner(v, a)
	for _, secret := range []int64{1, 0} {
		if _, err := r.Measure(secret); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifftestPoint measures one full difftest point (both
// directions' refill deltas and switch counts) per iteration.
func BenchmarkDifftestPoint(b *testing.B) {
	b.Run("checkpoint=off", func(b *testing.B) {
		h := difftest.DefaultHarness().WithoutCycleSkip()
		v, err := h.Generate(difftestPointSeed)
		if err != nil {
			b.Fatal(err)
		}
		a := new(cpu.Arena)
		freshPoint(b, h, v, a) // warm the arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			freshPoint(b, h, v, a)
		}
	})
	b.Run("checkpoint=on", func(b *testing.B) {
		h := difftest.DefaultHarness()
		v, err := h.Generate(difftestPointSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Inline baseline: a fresh runner per point on a skip-disabled
		// harness, so the reported speedup is measured in-process
		// rather than inferred across sub-benchmarks.
		hOff := h.WithoutCycleSkip()
		aOff := new(cpu.Arena)
		freshPoint(b, hOff, v, aOff)
		const baseReps = 3
		t0 := time.Now()
		for i := 0; i < baseReps; i++ {
			freshPoint(b, hOff, v, aOff)
		}
		baseNs := float64(time.Since(t0).Nanoseconds()) / baseReps

		a := new(cpu.Arena)
		r := h.NewPointRunner(v, a)
		var skipped, total uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, secret := range []int64{1, 0} {
				pt, err := r.Measure(secret)
				if err != nil {
					b.Fatal(err)
				}
				skipped += pt.SkippedCycles
				total += pt.TotalCycles
			}
		}
		b.StopTimer()
		if total > 0 {
			b.ReportMetric(float64(skipped)/float64(total), "skipped/total-cycles")
		}
		if el := b.Elapsed(); el > 0 && b.N > 0 {
			b.ReportMetric(baseNs/(float64(el.Nanoseconds())/float64(b.N)), "speedup-vs-fresh")
		}
	})
}

// calibrateRig builds the standard receiver/sender tiger pair for cfg.
func calibrateRig(b *testing.B, cfg cpu.Config) (*cpu.CPU, *attack.Routine, *attack.Routine) {
	b.Helper()
	g := attack.DefaultGeometry()
	recv, err := attack.Build(attack.Tiger(0x40000, g, "recv"))
	if err != nil {
		b.Fatal(err)
	}
	send, err := attack.Build(attack.Tiger(0x80000, g, "send"))
	if err != nil {
		b.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		b.Fatal(err)
	}
	c := cpu.New(cfg)
	c.LoadProgram(merged)
	return c, recv, send
}

// BenchmarkCalibrate measures one full channel calibration (4 rounds,
// hit and miss each) per iteration.
func BenchmarkCalibrate(b *testing.B) {
	const primeIters, probeIters, rounds = 20, 5, 4
	b.Run("checkpoint=off", func(b *testing.B) {
		cfg := cpu.Intel()
		cfg.DisableCycleSkip = true
		c, recv, send := calibrateRig(b, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := attack.Calibrate(c, recv, send, primeIters, probeIters, rounds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

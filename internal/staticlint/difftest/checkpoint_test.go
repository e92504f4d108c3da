package difftest

// checkpoint_test.go gates the two perf machineries this package rides
// on: the event-driven cycle-skip fast path (TestSkipCyclesEquivalence
// proves skip on/off is bit-identical over the full corpus, per
// profile) and the checkpoint-based PointRunner
// (TestPointRunnerMatchesMeasure and FuzzPointRunner prove it
// reproduces a fresh core's straight-line run sequence exactly,
// including on repeat measurements served from trained checkpoints).

import (
	"fmt"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
)

// measureSequence replays one direction's measurement straight-line on
// a fresh core built from cfg — write the secret, train ×trainRuns,
// warm, flush, cold — returning every run's full RunResult for
// byte-level comparison. It is the oracle the checkpointed PointRunner
// answers to.
func measureSequence(cfg cpu.Config, v *Victim, a *cpu.Arena, secret int64) ([trainRuns + 2]cpu.RunResult, error) {
	var out [trainRuns + 2]cpu.RunResult
	c := cpu.NewWith(cfg, a)
	c.LoadProgram(v.Prog)
	c.Mem().Write(SecretAddr, 1, secret)
	for i := 0; i < trainRuns+1; i++ {
		out[i] = c.Run(0, v.Entry, maxCycles)
	}
	c.FlushUopCache()
	out[trainRuns+1] = c.Run(0, v.Entry, maxCycles)
	for i, r := range out {
		if r.TimedOut {
			return out, fmt.Errorf("seed %d: run %d timed out", v.Seed, i)
		}
	}
	return out, nil
}

// equalModuloSkip compares two RunResults field by field and counter
// by counter, ignoring only SkippedCycles — the fast path's audit
// counter, the one value allowed (required) to differ.
func equalModuloSkip(a, b cpu.RunResult) error {
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.TimedOut != b.TimedOut {
		return fmt.Errorf("results diverged: %+v vs %+v", a, b)
	}
	for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
		if e == perfctr.SkippedCycles {
			continue
		}
		if x, y := a.Counters.Get(e), b.Counters.Get(e); x != y {
			return fmt.Errorf("counter %d diverged: %d vs %d", e, x, y)
		}
	}
	return nil
}

// TestSkipCyclesEquivalence is the acceptance gate for the fast path:
// over the full 200-seed corpus, both secret directions, and every
// profile in the matrix, a core with the fast path enabled must
// produce runs bit-identical — cycles, retirement, every counter
// except the SkippedCycles audit — to a core ticking every cycle. It
// also asserts the path is live: across the corpus the skipped-cycle
// total must be nonzero, or the equivalence would be vacuous.
func TestSkipCyclesEquivalence(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			cfgOn := h.CPUConfig()
			cfgOff := h.WithoutCycleSkip().CPUConfig()
			skipped, err := parsweep.MapArena(parsweep.Options{}, corpusSize,
				func() *cpu.Arena { return new(cpu.Arena) },
				func(a *cpu.Arena, i int) (uint64, error) {
					v, err := h.Generate(uint64(i + 1))
					if err != nil {
						return 0, err
					}
					var total uint64
					for _, secret := range []int64{1, 0} {
						on, err := measureSequence(cfgOn, v, a, secret)
						if err != nil {
							return 0, err
						}
						off, err := measureSequence(cfgOff, v, a, secret)
						if err != nil {
							return 0, err
						}
						for r := range on {
							if err := equalModuloSkip(on[r], off[r]); err != nil {
								return 0, fmt.Errorf("seed %d secret %d run %d: %w", v.Seed, secret, r, err)
							}
							if got := off[r].Counters.Get(perfctr.SkippedCycles); got != 0 {
								return 0, fmt.Errorf("seed %d: disabled fast path skipped %d cycles", v.Seed, got)
							}
							total += on[r].Counters.Get(perfctr.SkippedCycles)
						}
					}
					return total, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			for _, s := range skipped {
				total += s
			}
			if total == 0 {
				t.Fatalf("fast path never engaged across %d seeds under %s", corpusSize, p.Name)
			}
			t.Logf("%s: %d cycles skipped across the corpus, all runs bit-identical", p.Name, total)
		})
	}
}

// replayPoint is the Point a fresh-core measureSequence yields for one
// direction: the oracle for PointRunner.Measure.
func replayPoint(cfg cpu.Config, v *Victim, a *cpu.Arena, secret int64) (Point, error) {
	runs, err := measureSequence(cfg, v, a, secret)
	if err != nil {
		return Point{}, err
	}
	warm, cold := runs[trainRuns], runs[trainRuns+1]
	return Point{
		Delta:        int(cold.Cycles) - int(warm.Cycles),
		WarmSwitches: int(warm.Counters.Get(perfctr.DSB2MITESwitches)),
		ColdSwitches: int(cold.Counters.Get(perfctr.DSB2MITESwitches)),
		SkippedCycles: warm.Counters.Get(perfctr.SkippedCycles) +
			cold.Counters.Get(perfctr.SkippedCycles),
		TotalCycles: warm.Cycles + cold.Cycles,
	}, nil
}

// checkPointRunner measures both directions of v twice on one
// PointRunner — first calls forked from the pristine checkpoint, then
// repeats served from the trained checkpoints, interleaved so each
// restore undoes the other direction's runs — and requires every
// Point to equal the fresh-core replay.
func checkPointRunner(h *Harness, v *Victim, a *cpu.Arena) error {
	secrets := [2]int64{1, 0}
	var want [2]Point
	for i, secret := range secrets {
		var err error
		if want[i], err = replayPoint(h.CPUConfig(), v, a, secret); err != nil {
			return err
		}
		if want[i].TotalCycles == 0 {
			return fmt.Errorf("seed %d: empty measurement window", v.Seed)
		}
	}
	r := h.NewPointRunner(v, a)
	for pass := 0; pass < 2; pass++ {
		for i, secret := range secrets {
			got, err := r.Measure(secret)
			if err != nil {
				return err
			}
			if got != want[i] {
				return fmt.Errorf("seed %d secret %d pass %d: point %+v, fresh-core replay %+v",
					v.Seed, secret, pass, got, want[i])
			}
		}
	}
	return nil
}

// pointSeeds bounds the PointRunner equality corpus per profile.
const pointSeeds = 40

// TestPointRunnerMatchesMeasure proves the checkpointed PointRunner
// reproduces a fresh core's straight-line run sequence exactly: per
// (seed, secret), its Point — refill delta, warm/cold switch counts,
// skipped and total cycles — must equal measureSequence's, on the
// first call (trained from the pristine checkpoint) and again on a
// repeat call (served from the trained checkpoint).
func TestPointRunnerMatchesMeasure(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			_, err := parsweep.MapArena(parsweep.Options{}, pointSeeds,
				func() *cpu.Arena { return new(cpu.Arena) },
				func(a *cpu.Arena, i int) (struct{}, error) {
					v, err := h.Generate(uint64(i + 1))
					if err != nil {
						return struct{}{}, err
					}
					return struct{}{}, checkPointRunner(h, v, a)
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzPointRunner is the checkpoint ≡ straight-line contract over
// random victims: under profile prof (modulo the registered profiles)
// with the cycle-skip fast path on or off, every PointRunner Measure —
// first and repeat, both directions — must equal the fresh-core
// replay.
func FuzzPointRunner(f *testing.F) {
	for i, seed := range []uint64{0, 1, 5, 7, 9, 19, 220} {
		f.Add(seed, uint8(i), i%2 == 0)
	}
	profiles := profile.All()
	f.Fuzz(func(t *testing.T, seed uint64, prof uint8, skip bool) {
		h := NewHarness(profiles[int(prof)%len(profiles)])
		if !skip {
			h = h.WithoutCycleSkip()
		}
		v, err := h.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkPointRunner(h, v, nil); err != nil {
			t.Fatalf("%s (skip %v): %v", h.Profile.Name, skip, err)
		}
	})
}

package difftest

// pointrunner.go is the harness's one way to get a clean, trained
// core. A PointRunner builds the core once per program, snapshots it
// immediately after load (the pristine checkpoint), and snapshots it
// again after each direction's training runs settle the predictors
// and fill the micro-op cache (the per-direction trained checkpoints).
// Both sides of the harness fork from those checkpoints: the victim
// side (Measure) times a warm and a flushed cold run on the trained
// core, and the attacker side (RunProbe) runs the prime+probe protocol
// on it. Repeat measurements restore the trained checkpoint and pay
// only the timed runs.
//
// Equivalence is exact, not approximate: restoring the pristine
// checkpoint reproduces a fresh core bit for bit (cycle clock zero,
// counters zero, cold caches, loaded image), so every direction
// replays the fresh-core run sequence exactly, and every repeat
// Measure replays the first one's timed tail from the identical
// trained state. TestPointRunnerMatchesMeasure and FuzzPointRunner pin
// this against a fresh-core replay.

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

// Point bundles everything one (victim, secret) measurement produces:
// the refill delta, the warm/cold DSB→MITE switch counts, and the
// fast-path audit counters (skipped vs total cycles over the two timed
// runs) the checkpoint benchmarks report.
type Point struct {
	// Delta is the cold run's cycles minus the warm run's: the
	// DSB-refill cost of the executed path. Branch predictors and data
	// caches stay warm throughout, so no misprediction or
	// memory-latency noise enters it.
	Delta int
	// WarmSwitches and ColdSwitches are the DSB→MITE switch counts of
	// the warm and cold runs — the per-run transition counts the
	// quantifier predicts as WarmSwitchPoints/ColdSwitchPoints. They
	// are exact counter reads, so the validation contract for them is
	// equality, not a tolerance band.
	WarmSwitches int
	ColdSwitches int
	// SkippedCycles and TotalCycles aggregate the warm and cold timed
	// runs: how much of the measured window the event-driven fast path
	// crossed in single steps. Training runs are excluded — they are
	// not part of the measurement.
	SkippedCycles uint64
	TotalCycles   uint64
}

// PointRunner measures one victim on a single reusable core via
// checkpoints. Build one per victim with Harness.NewPointRunner; it is
// not safe for concurrent use, and building a new PointRunner on the
// same arena recycles the previous one's checkpoint buffers (the
// parsweep pattern: one point in flight per worker).
type PointRunner struct {
	v        *Victim
	c        *cpu.CPU
	arena    *cpu.Arena
	nextBuf  int
	pristine *cpu.Checkpoint
	trained  map[int64]*cpu.Checkpoint
}

// NewPointRunner builds a core for v on the harness's profile, drawing
// guest memory and checkpoint buffers from arena (which may be nil),
// and takes the pristine checkpoint: program loaded, secret not yet
// written, nothing run.
func (h *Harness) NewPointRunner(v *Victim, a *cpu.Arena) *PointRunner {
	return h.newPointRunner(v, v.Prog, a)
}

// newPointRunner is NewPointRunner loading prog — v's program, or a
// superset of it such as the victim merged with a probe receiver —
// instead of v.Prog.
func (h *Harness) newPointRunner(v *Victim, prog *asm.Program, a *cpu.Arena) *PointRunner {
	c := cpu.NewWith(h.cpuCfg, a)
	c.LoadProgram(prog)
	r := &PointRunner{
		v: v, c: c, arena: a,
		trained: make(map[int64]*cpu.Checkpoint, 2),
	}
	r.pristine = r.nextCheckpointBuf()
	c.Checkpoint(r.pristine)
	return r
}

func (r *PointRunner) nextCheckpointBuf() *cpu.Checkpoint {
	ck := r.arena.CheckpointBuf(r.nextBuf)
	r.nextBuf++
	return ck
}

// run executes the victim once from its entry.
func (r *PointRunner) run(tag string) (cpu.RunResult, error) {
	res := r.c.Run(0, r.v.Entry, maxCycles)
	if res.TimedOut {
		return res, fmt.Errorf("difftest seed %d: %s run timed out", r.v.Seed, tag)
	}
	return res, nil
}

// train leaves the core trained for secret. The first call per
// direction restores the pristine checkpoint, writes the secret, runs
// the victim trainRuns times to settle the predictors and fill the
// micro-op cache, and checkpoints the trained core; repeat calls
// restore that checkpoint.
func (r *PointRunner) train(secret int64) error {
	if ck := r.trained[secret]; ck != nil {
		r.c.Restore(ck)
		return nil
	}
	r.c.Restore(r.pristine)
	r.c.Mem().Write(SecretAddr, 1, secret)
	for i := 0; i < trainRuns; i++ {
		if _, err := r.run("train"); err != nil {
			return err
		}
	}
	ck := r.nextCheckpointBuf()
	r.c.Checkpoint(ck)
	r.trained[secret] = ck
	return nil
}

// Measure returns the point for one secret direction: on the trained
// core, a warm run is timed, the micro-op cache alone is flushed, and
// a cold run is timed. Only the first call per direction pays the
// training prefix.
func (r *PointRunner) Measure(secret int64) (Point, error) {
	if err := r.train(secret); err != nil {
		return Point{}, err
	}
	warm, err := r.run("warm")
	if err != nil {
		return Point{}, err
	}
	r.c.FlushUopCache()
	cold, err := r.run("cold")
	if err != nil {
		return Point{}, err
	}
	return Point{
		Delta:        int(cold.Cycles) - int(warm.Cycles),
		WarmSwitches: int(warm.Counters.Get(perfctr.DSB2MITESwitches)),
		ColdSwitches: int(cold.Counters.Get(perfctr.DSB2MITESwitches)),
		SkippedCycles: warm.Counters.Get(perfctr.SkippedCycles) +
			cold.Counters.Get(perfctr.SkippedCycles),
		TotalCycles: warm.Cycles + cold.Cycles,
	}, nil
}

// WithoutCycleSkip returns a copy of h whose simulator cores tick every
// cycle instead of using the event-driven fast path. Results are
// bit-identical either way (TestSkipCyclesEquivalence); the copy
// exists as the baseline side of the checkpoint benchmarks and the
// skip-equivalence gates.
func (h *Harness) WithoutCycleSkip() *Harness {
	hh := *h
	hh.cpuCfg.DisableCycleSkip = true
	return &hh
}

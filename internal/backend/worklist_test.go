package backend_test

import (
	"fmt"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
)

// TestWorklistInvariants runs generated programs under every profile
// and, at every retirement, checks the scheduler's bookkeeping against
// a full scan of the ROB: on thread 0 alone, then on both threads of
// an SMT run.
func TestWorklistInvariants(t *testing.T) {
	for _, p := range profile.All() {
		for seed := uint64(1); seed <= 20; seed++ {
			if err := checkWorklists(p, seed, true); err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
		}
	}
}

// FuzzWorklistInvariants is TestWorklistInvariants over any generated
// program, profile, and cycle skipping on or off.
func FuzzWorklistInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(0), true)
	f.Add(uint64(7), uint8(3), false)
	f.Add(uint64(42), uint8(4), true)
	profiles := profile.All()
	f.Fuzz(func(t *testing.T, seed uint64, p uint8, skip bool) {
		prof := profiles[int(p)%len(profiles)]
		if err := checkWorklists(prof, seed, skip); err != nil {
			t.Fatalf("%s seed %d skip %v: %v", prof.Name, seed, skip, err)
		}
	})
}

// checkWorklists runs the program generated from seed twice on thread
// 0 (cold, then warm), then on both SMT threads until each halts, then
// again until thread 0 halts, checking the retiring thread's backend
// at every retirement. It returns the first violation, or an error if
// a run times out.
func checkWorklists(p profile.Profile, seed uint64, skip bool) error {
	gcfg := ref.DefaultGenConfig()
	prog, err := ref.Generate(seed, gcfg)
	if err != nil {
		return err
	}
	cfg := cpu.FromProfile(p)
	cfg.KernelEntry = gcfg.KernelEntry
	cfg.DisableCycleSkip = !skip
	c := cpu.New(cfg)
	c.LoadProgram(prog)
	var bad error
	for th := 0; th < cpu.NumThreads; th++ {
		be := c.Backend(th)
		be.OnRetire = func(uint64, isa.Uop) {
			if bad != nil {
				return
			}
			if err := be.CheckWorklists(); err != nil {
				bad = fmt.Errorf("thread %d: %w", th, err)
			}
		}
	}
	// A violation is reported ahead of the timeout it may have caused.
	for run := 0; run < 2; run++ {
		if res := c.Run(0, prog.Entry, 1_000_000); bad == nil && res.TimedOut {
			return fmt.Errorf("run %d timed out", run)
		}
	}
	for th, res := range c.RunSMT(prog.Entry, prog.Entry, 2_000_000) {
		if bad == nil && res.TimedOut {
			return fmt.Errorf("SMT run: thread %d timed out", th)
		}
	}
	if res := c.RunSMTPrimary(prog.Entry, prog.Entry, 2_000_000); bad == nil && res[0].TimedOut {
		return fmt.Errorf("SMT primary run timed out")
	}
	return bad
}

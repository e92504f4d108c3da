package backend_test

import (
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
)

// TestWorklistInvariants runs generated programs under every profile
// and, at every retirement, checks the scheduler's worklists against a
// full scan of the ROB.
func TestWorklistInvariants(t *testing.T) {
	gcfg := ref.DefaultGenConfig()
	for _, p := range profile.All() {
		for seed := uint64(1); seed <= 20; seed++ {
			prog, err := ref.Generate(seed, gcfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cpu.FromProfile(p)
			cfg.KernelEntry = gcfg.KernelEntry
			c := cpu.New(cfg)
			c.LoadProgram(prog)
			be := c.Backend(0)
			var bad error
			be.OnRetire = func(cycle uint64, _ isa.Uop) {
				if bad == nil {
					bad = be.CheckWorklists()
				}
			}
			for run := 0; run < 2; run++ {
				if res := c.Run(0, prog.Entry, 1_000_000); res.TimedOut {
					t.Fatalf("%s seed %d: run timed out", p.Name, seed)
				}
			}
			if bad != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, bad)
			}
		}
	}
}

package frontend_test

import (
	"reflect"
	"testing"

	"deaduops/internal/bpu"
	"deaduops/internal/decode"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
	"deaduops/internal/uopcache"
)

// TestMemoMatchesFreshDecode fetches from every instruction of random
// programs under every profile, first with untrained and then with
// taken-trained conditional branches (so groups are cut at different
// lengths, with the µop cache flushed in between), and checks that every memoized group is a run of the
// program's consecutive instructions whose plan and trace equal a
// fresh decode.PlanRegion + uopcache.BuildTrace of that group.
func TestMemoMatchesFreshDecode(t *testing.T) {
	gen := ref.DefaultGenConfig()
	for _, prof := range profile.All() {
		for seed := uint64(1); seed <= 8; seed++ {
			prog, err := ref.Generate(seed, gen)
			if err != nil {
				t.Fatal(err)
			}
			uc := uopcache.New(prof.UopCache)
			hier := mem.NewHierarchy(mem.DefaultHierarchy())
			bp := bpu.New(bpu.DefaultConfig())
			cfg := prof.Frontend()
			cfg.KernelEntry = gen.KernelEntry
			fe := frontend.New(cfg, 0, uc, hier, bp, &perfctr.Counters{})
			fe.SetProgram(prog)
			fetchAll := func() {
				for _, in := range prog.Insts {
					fe.Redirect(in.Addr)
					for i := 0; i < 40; i++ {
						fe.Tick()
						fe.Pop(64)
					}
				}
			}
			fetchAll()
			// Flush so the shorter groups miss the µop cache and decode
			// instead of streaming from the longer groups' traces.
			uc.FlushAll()
			for _, in := range prog.Insts {
				if in.Op == isa.JCC {
					bp.UpdateDirection(in.Addr, true, false)
					bp.UpdateDirection(in.Addr, true, false)
				}
			}
			fetchAll()

			groups := fe.MemoGroups()
			if len(groups) == 0 {
				t.Fatalf("%s seed %d: nothing memoized", prof.Name, seed)
			}
			cut := 0
			for _, g := range groups {
				if len(g.Insts) < len(g.Run) {
					cut++
				}
				addr := g.Entry
				for _, in := range g.Insts {
					if prog.At(addr) != in {
						t.Fatalf("%s seed %d entry %#x: memo holds %v at %#x, program has %v",
							prof.Name, seed, g.Entry, in, addr, prog.At(addr))
					}
					addr = in.End()
				}
				plan := decode.PlanRegion(prof.Decode, g.Insts)
				if !reflect.DeepEqual(g.Plan, plan) {
					t.Fatalf("%s seed %d entry %#x (%d insts): memoized plan differs from a fresh decode",
						prof.Name, seed, g.Entry, len(g.Insts))
				}
				region := g.Entry &^ (prof.UopCache.RegionSize() - 1)
				trace := uopcache.BuildTrace(prof.UopCache, region, uint8(g.Entry-region), plan.Macros)
				if !reflect.DeepEqual(g.Trace, trace) {
					t.Fatalf("%s seed %d entry %#x (%d insts): memoized trace differs from a fresh build",
						prof.Name, seed, g.Entry, len(g.Insts))
				}
			}
			if cut == 0 {
				t.Errorf("%s seed %d: no memoized group was cut short by a taken branch", prof.Name, seed)
			}
		}
	}
}

package staticlint

import (
	"fmt"
	"testing"
	"time"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

func TestReceiverSpecFullOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	spec := ReceiverSpec(cfg, []int{3, 11})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// The receiver must claim every way of each probed set: a victim
	// line in a probed set then cannot install without displacing a
	// receiver line, and every displacement is probe-visible.
	if spec.Ways != cfg.UopCache.Ways {
		t.Errorf("receiver ways %d, want full %d-way occupancy", spec.Ways, cfg.UopCache.Ways)
	}
	if spec.NopPerRegion != codegen.TigerNops || !spec.LCP {
		t.Errorf("receiver regions not tiger-shaped: %+v", spec)
	}
}

// TestLintDivergenceOverEverySet is the regression for a secret branch
// whose taken path touches every µop cache set: the receiver chain over
// the divergent sets then leaves no set for its loop tail. The receiver
// model must fail, and the divergence finding ship without a probe
// histogram, instead of the analysis never returning.
func TestLintDivergenceOverEverySet(t *testing.T) {
	cfg := DefaultConfig()
	nsets := cfg.UopCache.Sets
	b := asm.New(0x10000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "r0")
	b.Halt() // fall-through: one line in set 0
	// Taken: one jump per region across every set, ending in a second
	// set-0 region, so set 0 holds two lines and every set diverges.
	for set := 0; set < nsets; set++ {
		next := fmt.Sprintf("r%d", set+1)
		if set == nsets-1 {
			next = "end"
		}
		b.Org(0x20000 + uint64(set)*codegen.RegionSize)
		b.Label(fmt.Sprintf("r%d", set))
		b.Jmp(next)
	}
	b.Org(0x20000 + uint64(nsets)*codegen.RegionSize)
	b.Label("end")
	b.Halt()
	p := b.MustBuild()

	done := make(chan *Report, 1)
	go func() { done <- Lint(p, Spec{SecretRegs: []isa.Reg{isa.R5}}, cfg) }()
	var r *Report
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Lint did not return: the receiver model hangs on an all-sets divergence")
	}
	fs := r.ByChecker("dsb-footprint-divergence")
	if len(fs) != 1 {
		t.Fatalf("divergence findings = %v, want 1", fs)
	}
	if got := len(fs[0].DivergentSets); got != nsets {
		t.Errorf("divergent sets = %d, want all %d", got, nsets)
	}
	if fs[0].Probe != nil {
		t.Errorf("receiver model priced a chain with no free tail set: %+v", fs[0].Probe)
	}
}

func TestProbeModelDisabled(t *testing.T) {
	fp := uopcache.FootprintResult{Sets: map[int]int{}}
	cfg := DefaultConfig()
	cfg.ProbeIters = 0
	if _, err := ProbeModel(cfg, fp, fp, []int{1}); err == nil {
		t.Error("zero probeIters accepted")
	}
	if _, err := ProbeModel(DefaultConfig(), fp, fp, nil); err == nil {
		t.Error("empty probed-set list accepted")
	}
}

// chainVictimFootprint synthesizes the footprint of a probe-chain
// victim: one single-line region per (set, way).
func chainVictimFootprint(spec *codegen.ChainSpec) uopcache.FootprintResult {
	fp := uopcache.FootprintResult{Sets: map[int]int{}}
	for _, s := range spec.Sets {
		for w := 0; w < spec.Ways; w++ {
			fp.Regions = append(fp.Regions, uopcache.RegionFootprint{
				Region: spec.RegionAddr(s, w), Set: s, Ways: 1, Cacheable: true,
			})
		}
		fp.Sets[s] = spec.Ways
	}
	return fp
}

// TestProbeModelMatchesSimulator holds the receiver model to the
// simulator exactly: the predicted hit and miss probe measurements
// must equal what the actual prime → probe → prime → victim → probe
// protocol measures cycle for cycle, including the replacement-policy
// cascades a static eviction count misses. Victim chains are placed so
// their loop scaffolding stays out of the probed sets — the same
// property the difftest generator guarantees for its victims (the
// model only sees the divergence footprint, not scaffolding).
func TestProbeModelMatchesSimulator(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name       string
		probe      []int
		victimSets []int
		victimWays int
	}{
		{"one-line", []int{4}, []int{4}, 1},
		{"three-lines", []int{4}, []int{4}, 3},
		{"two-sets-partial", []int{3, 7}, []int{3}, 2},
		{"two-sets-both", []int{3, 7}, []int{3, 7}, 2},
		{"dense-sets", []int{1, 2, 6}, []int{2}, 1},
		{"wide", []int{6, 14, 22, 30}, []int{14, 30}, 3},
	}
	for _, x := range cases {
		t.Run(x.name, func(t *testing.T) {
			spec := ReceiverSpec(cfg, x.probe)
			recv, err := attack.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			vspec := codegen.ProbeChain(0x100000, x.victimSets, x.victimWays, "vic")
			vic, err := attack.Build(vspec)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := asm.Merge(recv.Prog, vic.Prog)
			if err != nil {
				t.Fatal(err)
			}
			c := cpu.New(cpu.Intel())
			c.LoadProgram(merged)

			run := func(r *attack.Routine, iters int) uint64 {
				cy, err := r.Run(c, 0, int64(iters))
				if err != nil {
					t.Fatal(err)
				}
				return cy
			}
			run(recv, cfg.PrimeTraversals)
			measuredHit := run(recv, cfg.ProbeIters)
			run(recv, cfg.PrimeTraversals)
			run(vic, cfg.VictimRuns)
			measuredMiss := run(recv, cfg.ProbeIters)

			empty := uopcache.FootprintResult{Sets: map[int]int{}}
			h, err := ProbeModel(cfg, chainVictimFootprint(vspec), empty, x.probe)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(h.HitCycles) != measuredHit {
				t.Errorf("predicted hit %d cycles, simulator measured %d", h.HitCycles, measuredHit)
			}
			if uint64(h.Taken.Cycles) != measuredMiss {
				t.Errorf("predicted miss %d cycles, simulator measured %d", h.Taken.Cycles, measuredMiss)
			}
			if h.Fall.Cycles != h.HitCycles || h.Fall.ProbeMisses != 0 {
				t.Errorf("empty-footprint direction predicted %d cycles / %d misses; want the hit state",
					h.Fall.Cycles, h.Fall.ProbeMisses)
			}
			if h.Taken.ProbeMisses < h.Taken.EvictedLines {
				t.Errorf("probe misses %d below static eviction count %d", h.Taken.ProbeMisses, h.Taken.EvictedLines)
			}
		})
	}
}

// TestProbeModelCascade pins the reason the model replays the
// replacement state machine instead of counting evictions: a single
// victim line costs the probe more than one refill per traversal,
// because the probe's own failed refills displace worn-out neighbours.
func TestProbeModelCascade(t *testing.T) {
	cfg := DefaultConfig()
	vspec := codegen.ProbeChain(0x100000, []int{4}, 1, "vic")
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	h, err := ProbeModel(cfg, chainVictimFootprint(vspec), empty, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Taken.EvictedLines != 1 {
		t.Fatalf("static eviction count %d, want 1", h.Taken.EvictedLines)
	}
	if h.Taken.ProbeMisses <= cfg.ProbeIters {
		t.Errorf("probe misses %d not above %d (one per traversal): cascade not modelled",
			h.Taken.ProbeMisses, cfg.ProbeIters)
	}
}

func TestProbeModelSeparation(t *testing.T) {
	cfg := DefaultConfig()
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	loud := chainVictimFootprint(codegen.ProbeChain(0x100000, []int{4, 12}, 3, "vic"))

	// Asymmetric directions: one evicts, the other does not — the
	// probe times must separate beyond the floor.
	h, err := ProbeModel(cfg, loud, empty, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Distinguishable || h.SeparationMargin < ProbeSeparationFloor {
		t.Errorf("asymmetric eviction not distinguishable: margin %.2f", h.SeparationMargin)
	}
	if h.Taken.Separation < ProbeSeparationFloor {
		t.Errorf("taken-vs-hit separation %.2f below floor", h.Taken.Separation)
	}
	if h.DirectionCut <= float64(h.Fall.Cycles) || h.DirectionCut >= float64(h.Taken.Cycles) {
		t.Errorf("direction cut %.0f outside (%d, %d)", h.DirectionCut, h.Fall.Cycles, h.Taken.Cycles)
	}

	// Symmetric directions: identical footprints leave a total-time
	// receiver blind even though both perturb the probe.
	h, err = ProbeModel(cfg, loud, loud, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if h.Distinguishable || h.SeparationMargin != 1.0 {
		t.Errorf("identical footprints reported distinguishable (margin %.2f)", h.SeparationMargin)
	}
}

// TestProbeFloorMatchesAttack pins the duplicated constant: staticlint
// must not import internal/attack, so the separation floor the
// histograms are judged against is restated here — and this test keeps
// the two from drifting apart.
func TestProbeFloorMatchesAttack(t *testing.T) {
	if ProbeSeparationFloor != attack.SeparationFloor {
		t.Errorf("staticlint.ProbeSeparationFloor = %v, attack.SeparationFloor = %v",
			ProbeSeparationFloor, attack.SeparationFloor)
	}
}

// TestProbeMarginAgreesWithCalibrate holds the model's verdict to the
// attack tooling's on the same routine pair: when the histogram calls
// a victim distinguishable, attack.Calibrate against that victim must
// produce a threshold; when the histogram says the separation is
// floor-less, Calibrate must refuse to.
func TestProbeMarginAgreesWithCalibrate(t *testing.T) {
	cfg := DefaultConfig()
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	probe := []int{4, 12}

	calibrate := func(vspec *codegen.ChainSpec) error {
		recv, err := attack.Build(ReceiverSpec(cfg, probe))
		if err != nil {
			t.Fatal(err)
		}
		vic, err := attack.Build(vspec)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := asm.Merge(recv.Prog, vic.Prog)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cpu.Intel())
		c.LoadProgram(merged)
		_, err = attack.Calibrate(c, recv, vic,
			int64(cfg.PrimeTraversals), int64(cfg.ProbeIters), 3)
		return err
	}

	// A victim occupying the probed sets: the model predicts a margin
	// over the floor, and calibration against the real victim succeeds.
	loudSpec := codegen.ProbeChain(0x100000, probe, 3, "vic")
	h, err := ProbeModel(cfg, chainVictimFootprint(loudSpec), empty, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Distinguishable {
		t.Fatalf("conflicting victim predicted indistinguishable (margin %.2f)", h.SeparationMargin)
	}
	if err := calibrate(loudSpec); err != nil {
		t.Errorf("model margin %.2f over floor, but Calibrate failed: %v", h.SeparationMargin, err)
	}

	// A victim outside the probed sets: the model predicts no
	// separation, and calibration refuses to produce a threshold.
	quietSpec := codegen.ProbeChain(0x100000, []int{20}, 1, "vic")
	h, err = ProbeModel(cfg, chainVictimFootprint(quietSpec), empty, probe)
	if err != nil {
		t.Fatal(err)
	}
	if h.Distinguishable || h.SeparationMargin != 1.0 {
		t.Fatalf("non-conflicting victim predicted distinguishable (margin %.2f)", h.SeparationMargin)
	}
	if err := calibrate(quietSpec); err == nil {
		t.Error("model predicts no separation, but Calibrate produced a threshold")
	}
}

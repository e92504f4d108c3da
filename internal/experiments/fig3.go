package experiments

import (
	"fmt"

	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

const (
	benchBase   = 0x10000 // 1024-aligned code base for microbenchmarks
	maxRunCycle = 50_000_000
)

func init() {
	register("fig3a", func(o Options) (Renderable, error) { return Fig3aCacheSize(o) })
	register("fig3b", func(o Options) (Renderable, error) { return Fig3bAssociativity(o) })
}

// Fig3aCacheSize reproduces Fig 3a: loops of progressively more 32-byte
// regions (3 µops each, the Listing 1 layout); the number of µops
// delivered by the legacy decode pipeline jumps once the loop exceeds
// the 256-line capacity of the micro-op cache.
func Fig3aCacheSize(o Options) (*Figure, error) {
	o = o.withDefaults(40, 10, 1)
	var ns []int
	for n := 8; n <= 384; n += 8 {
		ns = append(ns, n)
	}
	ys, err := sweep(o, len(ns), func(a *cpu.Arena, i int) (float64, error) {
		return fig3aPoint(ns[i], o, a)
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return &Figure{
		ID:     "fig3a",
		Title:  "Measuring µop cache size by testing progressively larger loops",
		XAxis:  "Number of 32 Byte Regions in the Loop",
		YAxis:  "Micro-Ops from Decode Pipeline (per iteration)",
		Series: []Series{{Label: "mite_uops", X: xs, Y: ys}},
	}, nil
}

func fig3aPoint(regions int, o Options, a *cpu.Arena) (float64, error) {
	prog, err := codegen.SequentialLoop(benchBase, regions, 3)
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(prog)
	res, err := steadyState(c, prog.Entry, o, fmt.Sprintf("fig3a at %d regions", regions))
	if err != nil {
		return 0, err
	}
	return float64(res.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations), nil
}

// Fig3bAssociativity reproduces Fig 3b: jump chains through regions
// that all map to set 0; legacy-decode µops rise once the chain exceeds
// the 8 ways of the set.
func Fig3bAssociativity(o Options) (*Figure, error) {
	o = o.withDefaults(40, 10, 1)
	const maxWays = 15
	ys, err := sweep(o, maxWays, func(a *cpu.Arena, i int) (float64, error) {
		spec := &codegen.ChainSpec{
			Base:  benchBase,
			Sets:  []int{0},
			Ways:  i + 1,
			Label: "assoc",
		}
		return chainMITEPerIteration(spec, o, a)
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, maxWays)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return &Figure{
		ID:     "fig3b",
		Title:  "Measuring the size of one set to determine associativity",
		XAxis:  "Number of 32 Byte Regions in the Loop",
		YAxis:  "Micro-Ops from Decode Pipeline (per iteration)",
		Series: []Series{{Label: "mite_uops", X: xs, Y: ys}},
	}, nil
}

// chainMITEPerIteration measures steady-state legacy-decode µops per
// traversal of the chain.
func chainMITEPerIteration(spec *codegen.ChainSpec, o Options, a *cpu.Arena) (float64, error) {
	prog, err := spec.LoopProgram(tailAddrFor(spec))
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(prog)
	res, err := steadyState(c, prog.Entry, o, "chain")
	if err != nil {
		return 0, err
	}
	return float64(res.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations), nil
}

// tailAddrFor picks a loop-tail address clear of the chain's span, in a
// set far from the chain's sets.
func tailAddrFor(spec *codegen.ChainSpec) uint64 {
	span := uint64(spec.Ways+1) * codegen.WayStride
	tail := spec.Base + span + 16*codegen.RegionSize
	return tail
}

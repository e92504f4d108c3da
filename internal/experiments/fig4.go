package experiments

import (
	"fmt"

	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

func init() {
	register("fig4", func(o Options) (Renderable, error) { return Fig4Placement(o) })
}

// Fig4Placement reproduces Fig 4: loops of 2, 4, and 8 same-set regions
// with a growing number of micro-ops per region. The µops delivered
// from the micro-op cache (DSB) plateau at the placement-rule limits:
// a region may hold at most 18 µops (3 lines), and the set's 8 ways
// bound the product regions × lines.
func Fig4Placement(o Options) (*Figure, error) {
	o = o.withDefaults(40, 10, 1)
	fig := &Figure{
		ID:    "fig4",
		Title: "Micro-op cache placement rules",
		XAxis: "Micro-Ops per Region",
		YAxis: "Micro-Ops from DSB per region per iteration",
	}
	regionCounts := []int{2, 4, 8}
	const maxUops = 24
	// Flatten the 3×24 grid into one point list so the pool can chew
	// through every cell concurrently, then fold back into series.
	vals, err := sweep(o, len(regionCounts)*maxUops, func(a *cpu.Arena, i int) (float64, error) {
		return fig4Point(regionCounts[i/maxUops], i%maxUops+1, o, a)
	})
	if err != nil {
		return nil, err
	}
	for ri, regions := range regionCounts {
		xs := make([]float64, maxUops)
		ys := make([]float64, maxUops)
		for ui := 0; ui < maxUops; ui++ {
			xs[ui] = float64(ui + 1)
			ys[ui] = vals[ri*maxUops+ui] / float64(regions)
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("%d regions", regions),
			X:     xs, Y: ys,
		})
	}
	return fig, nil
}

// fig4Point returns steady-state DSB µops per iteration for a loop of
// `regions` same-set regions of `uops` µops each.
func fig4Point(regions, uops int, o Options, a *cpu.Arena) (float64, error) {
	spec := &codegen.ChainSpec{
		Base:         benchBase,
		Sets:         []int{0},
		Ways:         regions,
		NopPerRegion: uops - 1,
		NopLen:       1,
		Label:        "plc",
	}
	prog, err := spec.LoopProgram(tailAddrFor(spec))
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(prog)
	res, err := steadyState(c, prog.Entry, o, fmt.Sprintf("fig4 (%d regions × %d µops)", regions, uops))
	if err != nil {
		return 0, err
	}
	// Subtract the loop tail's DSB contribution by measuring only the
	// chain regions: the tail is small and constant; the paper's
	// counter similarly includes loop overhead. Report the raw chain
	// average.
	perIter := float64(res.Counters.Get(perfctr.DSBUops)) / float64(o.Iterations)
	// Remove the (cached) loop-tail µops: sub+cmp+jcc fuse to 2 µops
	// plus the entry jmp on the first iteration only.
	const tailUops = 2
	perIter -= tailUops
	if perIter < 0 {
		perIter = 0
	}
	return perIter, nil
}

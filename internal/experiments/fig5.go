package experiments

import (
	"fmt"

	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

func init() {
	register("fig5", func(o Options) (Renderable, error) { return Fig5Replacement(o) })
}

// Fig5Replacement reproduces Fig 5: a main loop and an evicting loop,
// each jumping through eight ways of set 0 with six µops per line, are
// interleaved with varying iteration counts. The per-iteration µops the
// main loop receives from the micro-op cache reveal the hotness-based
// replacement policy: the evictor only displaces the main loop's lines
// once its access count exceeds theirs.
func Fig5Replacement(o Options) (*Figure, error) {
	g, err := Fig5ReplacementGrid(o)
	if err != nil {
		return nil, err
	}
	// Flatten the grid into one series per main-loop count so the
	// Figure interfaces stay uniform; Render of the Grid is available
	// via Fig5ReplacementGrid.
	fig := &Figure{
		ID:    g.ID,
		Title: g.Title,
		XAxis: g.XAxis,
		YAxis: "Micro-Ops from micro-op cache (per main iteration)",
	}
	for yi, y := range g.YVals {
		s := Series{Label: fmt.Sprintf("main=%d", y)}
		for xi, x := range g.XVals {
			s.X = append(s.X, float64(x))
			s.Y = append(s.Y, g.Cell[yi][xi])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig5ReplacementGrid runs the replacement experiment and returns the
// heat-map form matching the paper's figure.
func Fig5ReplacementGrid(o Options) (*Grid, error) {
	o = o.withDefaults(0, 0, 6) // samples = interleave rounds
	mainSpec := &codegen.ChainSpec{
		Base: benchBase, Sets: []int{0}, Ways: 8,
		NopPerRegion: 5, NopLen: 1, Label: "main",
	}
	evictSpec := &codegen.ChainSpec{
		Base: benchBase + 16*codegen.WayStride, Sets: []int{0}, Ways: 8,
		NopPerRegion: 5, NopLen: 1, Label: "evict",
	}
	g := &Grid{
		ID:    "fig5",
		Title: "µops from micro-op cache while an interleaved loop evicts",
		XAxis: "Iterations of the Evicting Loop",
		YAxis: "Iterations of the Main Loop",
	}
	for x := 0; x <= 12; x++ {
		g.XVals = append(g.XVals, x)
	}
	for y := 1; y <= 12; y++ {
		g.YVals = append(g.YVals, y)
	}
	nx := len(g.XVals)
	cells, err := sweep(o, len(g.YVals)*nx, func(a *cpu.Arena, i int) (float64, error) {
		return fig5Cell(mainSpec, evictSpec, g.YVals[i/nx], g.XVals[i%nx], o, a)
	})
	if err != nil {
		return nil, err
	}
	for yi := range g.YVals {
		g.Cell = append(g.Cell, cells[yi*nx:(yi+1)*nx])
	}
	return g, nil
}

// fig5Cell interleaves the two loops for o.Samples rounds and returns
// the average µops per main-loop iteration delivered from the micro-op
// cache over the measured rounds.
func fig5Cell(mainSpec, evictSpec *codegen.ChainSpec, mainIters, evictIters int, o Options, a *cpu.Arena) (float64, error) {
	// Tails land in set 16, far from the probed set 0.
	mainTail := mainSpec.Base + 33*codegen.WayStride + 16*codegen.RegionSize
	evictTail := evictSpec.Base + 33*codegen.WayStride + 16*codegen.RegionSize
	mainProg, err := mainSpec.LoopProgram(mainTail)
	if err != nil {
		return 0, err
	}
	evictProg, err := evictSpec.LoopProgram(evictTail)
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	var dsb uint64
	rounds := o.Samples
	measured := 0
	for r := 0; r < rounds; r++ {
		c.LoadProgram(mainProg)
		c.SetReg(0, isa.R14, int64(mainIters))
		res := c.Run(0, mainProg.Entry, maxRunCycle)
		if res.TimedOut {
			return 0, fmt.Errorf("fig5 main loop timed out")
		}
		if r > 0 { // skip the cold first round
			dsb += res.Counters.Get(perfctr.DSBUops)
			measured++
		}
		if evictIters > 0 {
			c.LoadProgram(evictProg)
			c.SetReg(0, isa.R14, int64(evictIters))
			if res := c.Run(0, evictProg.Entry, maxRunCycle); res.TimedOut {
				return 0, fmt.Errorf("fig5 evicting loop timed out")
			}
		}
	}
	if measured == 0 {
		return 0, nil
	}
	perIter := float64(dsb) / float64(measured) / float64(mainIters)
	// Clamp the loop-tail contribution out.
	const tailUops = 2
	perIter -= tailUops
	if perIter < 0 {
		perIter = 0
	}
	return perIter, nil
}

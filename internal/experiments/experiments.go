// Package experiments regenerates every figure and table of the
// paper's evaluation on the simulated core. Each experiment function
// returns structured series/rows and can render itself as text, so the
// CLI tools, the benchmark harness, and the tests share one
// implementation. The DESIGN.md experiment index maps each function to
// its paper artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/parsweep"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of curves plus identifying metadata.
type Figure struct {
	ID     string // e.g. "fig3a"
	Title  string
	XAxis  string
	YAxis  string
	Series []Series
}

// Render returns a text rendering of the figure's data.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n# x: %s, y: %s\n", f.ID, f.Title, f.XAxis, f.YAxis)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "## %s\n", s.Label)
		for i := range s.X {
			fmt.Fprintf(&sb, "%g\t%g\n", s.X[i], s.Y[i])
		}
	}
	return sb.String()
}

// CSV renders the figure as comma-separated series rows.
func (f *Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&sb, "%s,%g,%g\n", s.Label, s.X[i], s.Y[i])
		}
	}
	return sb.String()
}

// Grid is a 2-D heat map (Fig 5).
type Grid struct {
	ID    string
	Title string
	XAxis string
	YAxis string
	XVals []int
	YVals []int
	// Cell[yi][xi] is the measured value.
	Cell [][]float64
}

// Render returns a text heat map.
func (g *Grid) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n# rows: %s, cols: %s\n", g.ID, g.Title, g.YAxis, g.XAxis)
	fmt.Fprintf(&sb, "%6s", "")
	for _, x := range g.XVals {
		fmt.Fprintf(&sb, "%6d", x)
	}
	sb.WriteByte('\n')
	for yi, y := range g.YVals {
		fmt.Fprintf(&sb, "%6d", y)
		for xi := range g.XVals {
			fmt.Fprintf(&sb, "%6.0f", g.Cell[yi][xi])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table is a rows-and-columns artifact (Tables I and II).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render returns an aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Options tunes experiment cost. Zero values select defaults sized for
// tests; the CLI raises them for smoother curves.
type Options struct {
	// Iterations is the per-measurement loop count.
	Iterations int
	// Warmup is the number of priming traversals before measuring.
	Warmup int
	// Samples is the per-point repeat count (averaged).
	Samples int
	// Seed feeds the deterministic PRNG used by workloads and payloads.
	Seed uint64
	// Workers bounds the sweep worker pool. Zero selects GOMAXPROCS;
	// 1 forces sequential execution. Results are identical at every
	// worker count — each sweep point builds its own core and the pool
	// assembles results in input order.
	Workers int
}

// pool returns the parsweep options for this run.
func (o Options) pool() parsweep.Options { return parsweep.Options{Workers: o.Workers} }

// sweep evaluates n independent measurement points across the worker
// pool, giving each worker one reusable simulator arena. Results come
// back in point order, so a figure assembled from them is byte-
// identical at every worker count.
func sweep[T any](o Options, n int, fn func(a *cpu.Arena, i int) (T, error)) ([]T, error) {
	return parsweep.MapArena(o.pool(), n,
		func() *cpu.Arena { return new(cpu.Arena) }, fn)
}

func (o Options) withDefaults(iter, warm, samples int) Options {
	if o.Iterations == 0 {
		o.Iterations = iter
	}
	if o.Warmup == 0 {
		o.Warmup = warm
	}
	if o.Samples == 0 {
		o.Samples = samples
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

// steadyState is the one steady-state measurement of the §III
// characterization: o.Warmup iterations of the loop at entry on thread
// 0 (loop count in R14) fill the micro-op cache and train the
// predictors, then o.Iterations measured iterations run. It returns
// the measured run, whose Counters are that run's deltas alone; what
// names the point in timeout errors.
func steadyState(c *cpu.CPU, entry uint64, o Options, what string) (cpu.RunResult, error) {
	c.SetReg(0, isa.R14, int64(o.Warmup))
	if r := c.Run(0, entry, maxRunCycle); r.TimedOut {
		return r, fmt.Errorf("%s warmup timed out", what)
	}
	c.SetReg(0, isa.R14, int64(o.Iterations))
	res := c.Run(0, entry, maxRunCycle)
	if res.TimedOut {
		return res, fmt.Errorf("%s run timed out", what)
	}
	return res, nil
}

// steadyStateSMT is steadyState with a co-runner: thread 1 runs the
// loop at sibling for the whole of each thread-0 window (its R14 set
// far beyond any window; the run ends when thread 0 halts). It returns
// both threads' measured runs.
func steadyStateSMT(c *cpu.CPU, entry, sibling uint64, o Options, what string) ([cpu.NumThreads]cpu.RunResult, error) {
	run := func(iters int, phase string) ([cpu.NumThreads]cpu.RunResult, error) {
		c.SetReg(0, isa.R14, int64(iters))
		c.SetReg(1, isa.R14, 1<<40)
		res := c.RunSMTPrimary(entry, sibling, maxRunCycle)
		if res[0].TimedOut {
			return res, fmt.Errorf("%s %s timed out", what, phase)
		}
		return res, nil
	}
	if res, err := run(o.Warmup, "warmup"); err != nil {
		return res, err
	}
	return run(o.Iterations, "run")
}

// Renderable is anything an experiment can produce.
type Renderable interface{ Render() string }

// Registry maps experiment ids to runners.
var Registry = map[string]func(Options) (Renderable, error){}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func register(id string, fn func(Options) (Renderable, error)) {
	Registry[id] = fn
}

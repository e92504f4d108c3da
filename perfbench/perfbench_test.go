package main

// Self-tests of the benchmark: a short smoke run of each workload, a
// negative control per oracle, and the check that every printed metric
// is declared in BENCHMARK.json. Run from perfbench/ with
//
//	go test .
//
// and rewrite testdata/expected.json after an intentional model change
// with go test -run TestExpected -update.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	"deaduops/internal/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from the current code")

func testOptions(t *testing.T, workload string, seconds float64, trace bool) *options {
	t.Helper()
	tr := "0"
	if trace {
		tr = "1"
	}
	o, _, err := parseFlags([]string{"--workload", workload,
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr})
	if err != nil {
		t.Fatal(err)
	}
	o.root = ".." // go test runs in perfbench/
	o.out = t.TempDir()
	o.probes = 0
	return o
}

func setup(t *testing.T, o *options) workload {
	t.Helper()
	w, err := setups[o.workload](o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	return w
}

// oneRound runs round 0 and the untimed oracles.
func oneRound(w workload) *bench {
	b := newBench(nil)
	w.round(b, 0)
	w.finish(b)
	return b
}

func requireClean(t *testing.T, b *bench) {
	t.Helper()
	if b.attempted == 0 || b.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", b.failed, b.attempted, b.errs)
	}
}

func TestSmokeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("one figures pass takes about ten seconds")
	}
	o := testOptions(t, "figures", 1, false)
	b := oneRound(setup(t, o))
	requireClean(t, b)
	if len(b.exact) != len(o.want.Figures) {
		t.Fatalf("rendered %d experiments, expected.json pins %d", len(b.exact), len(o.want.Figures))
	}
}

func TestSmokeDifftest(t *testing.T) {
	o := testOptions(t, "difftest", 1, false)
	b := oneRound(setup(t, o))
	requireClean(t, b)
	for k, want := range o.want.Exact {
		if got := b.exact[k]; got != want {
			t.Errorf("exact count %s = %s, expected.json has %s", k, got, want)
		}
	}
}

func TestSmokeAudit(t *testing.T) {
	a := setup(t, testOptions(t, "audit", 1, false)).(*auditW)
	stages := a.stages
	requireClean(t, oneRound(a))
	goldens, err := fixtureGoldens("../cmd/uoplint/testdata")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, st := range stages {
		for _, r := range st {
			kinds[r.kind]++
		}
	}
	np := len(profile.Names())
	first := 3*np + len(goldens)
	want := map[string]int{"cold": 2 * np, "subset": np, "fixture": len(goldens), "repeat": warmPasses * first}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%d %s requests per round, want %d", kinds[k], k, n)
		}
	}
}

// TestAuditPhasesAgree runs one plain and one traced round back to
// back, as a --trace 1 run does, and requires the same cache hit
// shares: each round starts on a fresh daemon.
func TestAuditPhasesAgree(t *testing.T) {
	w := setup(t, testOptions(t, "audit", 1, true))
	plain := runPhase(w, 1e-3, nil)
	traced := runPhase(w, 1e-3, newTracer())
	requireClean(t, plain)
	requireClean(t, traced)
	for _, layer := range []string{"report", "func"} {
		p, tr := hitFrac(plain, layer), hitFrac(traced, layer)
		if p != tr || p == 0 || p == 1 {
			t.Errorf("%s hit share: plain %v, traced %v; want equal and strictly between 0 and 1", layer, p, tr)
		}
	}
}

// The negative controls tamper with one stored digest or golden and
// require the run to count a failure.

func TestNegativeFiguresDigest(t *testing.T) {
	o := testOptions(t, "figures", 1, false)
	f := setup(t, o).(*figures)
	f.ids = []string{"fig8"}
	f.want["fig8"] = "0000"
	if b := oneRound(f); b.failed == 0 {
		t.Fatal("a tampered figure digest went unnoticed")
	}
}

func TestNegativeCanonicalGolden(t *testing.T) {
	o := testOptions(t, "difftest", 1, false)
	d := setup(t, o).(*difftestW)
	def := d.hs[0].Profile.Name
	d.goldens[def] = bytes.Replace(d.goldens[def], []byte(`"seed": 0`), []byte(`"seed": 7`), 1)
	b := newBench(nil)
	d.finish(b)
	if b.failed == 0 {
		t.Fatal("a tampered canonical golden went unnoticed")
	}
}

func TestNegativeFixtureGolden(t *testing.T) {
	o := testOptions(t, "audit", 1, false)
	a := setup(t, o).(*auditW)
	for _, st := range a.stages {
		for i := range st {
			if g := st[i].golden; g != nil {
				st[i].golden = bytes.Replace(g, []byte(`"findings"`), []byte(`"findingz"`), 1)
			}
		}
	}
	if b := oneRound(a); b.failed == 0 {
		t.Fatal("a tampered fixture golden went unnoticed")
	}
}

// TestExactMismatchReported changes one stored exact count and
// requires the comparison to report the model as changed.
func TestExactMismatchReported(t *testing.T) {
	o := testOptions(t, "difftest", 1, false)
	b := newBench(nil)
	for k, v := range o.want.Exact {
		b.exact[k] = v
	}
	checkExact(o, b, nil)
	if n := b.counts["exact.mismatches"]; n != 0 {
		t.Fatalf("%v mismatches against the stored counts themselves", n)
	}
	b.exact["cpu.sim_cycles"] += "0"
	checkExact(o, b, nil)
	if b.counts["exact.mismatches"] == 0 {
		t.Fatal("a changed exact count went unreported")
	}
}

// TestPrintedMetricsDeclared runs each mode and requires its printed
// metric names and units to be exactly those BENCHMARK.json declares.
func TestPrintedMetricsDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"difftest", false}, {"difftest", true}, {"audit", false}, {"audit", true}} {
		res, err := measure(testOptions(t, tc.workload, 0.5, tc.trace))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s trace=%v: not correct: %+v", tc.workload, tc.trace, res)
		}
		want := decl.EndToEnd
		if tc.trace {
			want = decl.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v printed %d metrics, BENCHMARK.json declares %d", tc.workload, tc.trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("%s trace=%v: %s declared but not printed", tc.workload, tc.trace, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: printed unit %q, declared %q", d.Name, m.Unit, d.Unit)
			}
		}
	}
}

// TestExpected rewrites testdata/expected.json with -update: the
// default seed's figure digests and round 0's exact counts.
func TestExpected(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/expected.json")
	}
	want := expected{Seed: defaultSeed, Figures: map[string]string{}}
	o := testOptions(t, "figures", 1, false)
	o.want = expected{} // nothing pinned: the pass records its digests
	f := setup(t, o).(*figures)
	requireClean(t, oneRound(f))
	want.Figures = f.want

	b := oneRound(setup(t, testOptions(t, "difftest", 1, false)))
	requireClean(t, b)
	want.Exact = b.exact

	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

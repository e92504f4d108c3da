package attack

import (
	"errors"
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
)

func TestTigersConflictZebraDoesNot(t *testing.T) {
	g := DefaultGeometry()
	tigerA := Tiger(0x40000, g, "ta")
	tigerB := Tiger(0x80000, g, "tb")
	zebra := Zebra(0xC0000, g, "z")

	setsOf := func(sets []int) map[int]bool {
		m := map[int]bool{}
		for _, s := range sets {
			m[s] = true
		}
		return m
	}
	sa, sb, sz := setsOf(tigerA.Sets), setsOf(tigerB.Sets), setsOf(zebra.Sets)
	for s := range sa {
		if !sb[s] {
			t.Errorf("tiger B misses tiger A's set %d", s)
		}
		if sz[s] {
			t.Errorf("zebra shares tiger set %d", s)
		}
	}
}

func TestTigerEvictsTigerTimingSignal(t *testing.T) {
	g := DefaultGeometry()
	recv, err := Build(Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := Build(Tiger(0x80000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	zeb, err := Build(Zebra(0xC0000, g, "zeb"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog, zeb.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)

	prime := func() {
		if _, err := recv.Run(c, 0, 20); err != nil {
			t.Fatal(err)
		}
	}
	probe := func() uint64 {
		cy, err := recv.Run(c, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		return cy
	}

	prime()
	hit := probe()

	prime()
	if _, err := send.Run(c, 0, 20); err != nil {
		t.Fatal(err)
	}
	miss := probe()

	prime()
	if _, err := zeb.Run(c, 0, 20); err != nil {
		t.Fatal(err)
	}
	zebraProbe := probe()

	if miss < hit*2 {
		t.Errorf("tiger conflict signal too weak: hit %d, miss %d", hit, miss)
	}
	if zebraProbe > hit*3/2 {
		t.Errorf("zebra disturbed the receiver: hit %d, after-zebra %d", hit, zebraProbe)
	}
}

// calibrationRig builds the standard receiver/sender tiger pair on one
// core.
func calibrationRig(t *testing.T) (*cpu.CPU, *Routine, *Routine) {
	t.Helper()
	g := DefaultGeometry()
	recv, err := Build(Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := Build(Tiger(0x80000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	return c, recv, send
}

func TestCalibrate(t *testing.T) {
	c, recv, send := calibrationRig(t)
	th, err := Calibrate(c, recv, send, 20, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if th.Cut <= th.HitMean || th.Cut >= th.MissMean {
		t.Errorf("cut %.0f outside (%.0f, %.0f)", th.Cut, th.HitMean, th.MissMean)
	}
	if !th.Hit(uint64(th.HitMean)) {
		t.Error("hit mean classified as miss")
	}
	if th.Hit(uint64(th.MissMean)) {
		t.Error("miss mean classified as hit")
	}
}

// TestThresholdBoundary pins the exactly-on-Cut convention: a probe
// landing exactly on the cut classifies as a miss (strict <), and
// Miss is Hit's exact complement — the single boundary every decode
// path in internal/channel routes through.
func TestThresholdBoundary(t *testing.T) {
	th := Threshold{HitMean: 100, MissMean: 300, Cut: 200}
	if !th.Hit(199) {
		t.Error("below-cut probe classified as miss")
	}
	if th.Hit(200) {
		t.Error("exactly-on-cut probe classified as hit; the convention is miss")
	}
	if th.Hit(201) {
		t.Error("above-cut probe classified as hit")
	}
	for _, cy := range []uint64{0, 199, 200, 201, 1 << 40} {
		if th.Hit(cy) == th.Miss(cy) {
			t.Errorf("Hit and Miss agree at %d cycles; they must be complements", cy)
		}
	}
}

// TestThresholdOutlierRound is the regression for the running-sum
// reduction bug: one anomalously slow miss round used to drag the
// mean-midpoint cut above the rest of the miss cluster, so genuine
// misses decoded as hits even though the 1.3× separation check passed.
// The spread-aware reduction clamps the cut into the observed gap.
func TestThresholdOutlierRound(t *testing.T) {
	r := Rounds{
		Hit:        []float64{100, 100, 100, 100},
		Miss:       []float64{200, 200, 200, 2000},
		ProbeIters: 5,
	}
	th, err := r.Threshold()
	if err != nil {
		t.Fatalf("outlier round rejected outright: %v", err)
	}
	// Means alone would put the cut at (100+650)/2 = 375, above the
	// 200-cycle miss cluster.
	if th.Cut >= th.MissMin {
		t.Errorf("cut %.0f at or above miss cluster minimum %.0f: outlier dragged it", th.Cut, th.MissMin)
	}
	if th.Cut <= th.HitMax {
		t.Errorf("cut %.0f at or below hit cluster maximum %.0f", th.Cut, th.HitMax)
	}
	if th.Hit(200) {
		t.Error("cluster miss round decodes as hit under the outlier-dragged cut")
	}
	if !th.Hit(100) {
		t.Error("hit round decodes as miss")
	}
	if th.MissMin != 200 || th.MissMax != 2000 || th.HitMin != 100 || th.HitMax != 100 {
		t.Errorf("per-round spread not recorded: %+v", th)
	}
}

// TestThresholdSpreadInError asserts the no-signal diagnostic carries
// both distributions' per-round extremes, not just the means.
func TestThresholdSpreadInError(t *testing.T) {
	r := Rounds{Hit: []float64{95, 105}, Miss: []float64{104, 120}, ProbeIters: 7}
	_, err := r.Threshold()
	if err == nil {
		t.Fatal("overlapping sub-floor distributions accepted")
	}
	for _, want := range []string{"[95..105]", "[104..120]", "7 traversals"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("no-signal error %q missing spread component %q", err, want)
		}
	}
}

// TestThresholdUnits pins the unit contract: threshold cycle fields
// are totals over ProbeIters traversals. Calibrating the same channel
// with twice the probe iterations must roughly double the raw means
// while the PerTraversal view stays comparable.
func TestThresholdUnits(t *testing.T) {
	calibrate := func(probeIters int64) Threshold {
		g := DefaultGeometry()
		recv, _ := Build(Tiger(0x40000, g, "recv"))
		send, _ := Build(Tiger(0x80000, g, "send"))
		merged, err := asm.Merge(recv.Prog, send.Prog)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cpu.Intel())
		c.LoadProgram(merged)
		th, err := Calibrate(c, recv, send, 20, probeIters, 4)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	th5, th10 := calibrate(5), calibrate(10)
	if th5.ProbeIters != 5 || th10.ProbeIters != 10 {
		t.Fatalf("probe unit not recorded: %d, %d", th5.ProbeIters, th10.ProbeIters)
	}
	if ratio := th10.HitMean / th5.HitMean; ratio < 1.5 || ratio > 2.5 {
		t.Errorf("doubling probeIters scaled raw hit mean by %.2f; raw means are totals and must scale", ratio)
	}
	// Per-traversal views are unit-normalized: comparable within 30%
	// (the fixed entry/exit overhead amortizes differently).
	p5, p10 := th5.PerTraversal(th5.HitMean), th10.PerTraversal(th10.HitMean)
	if ratio := p10 / p5; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("per-traversal hit means differ %.2f× across probeIters; normalization broken", ratio)
	}
	// Raw cuts across different probeIters are different units: the
	// 5-iteration miss mean must not clear the 10-iteration cut.
	if !th10.Hit(uint64(th5.MissMean)) {
		t.Errorf("5-iteration miss total %.0f read against the 10-iteration cut %.0f decodes as miss; comparing raw units must mislead",
			th5.MissMean, th10.Cut)
	}
}

func TestCalibrateRecordsSpread(t *testing.T) {
	c, recv, send := calibrationRig(t)
	th, err := Calibrate(c, recv, send, 20, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if th.HitMin <= 0 || th.HitMax < th.HitMin || th.MissMin <= 0 || th.MissMax < th.MissMin {
		t.Errorf("spread fields not populated: %+v", th)
	}
	if th.HitMean < th.HitMin || th.HitMean > th.HitMax || th.MissMean < th.MissMin || th.MissMean > th.MissMax {
		t.Errorf("means outside recorded spreads: %+v", th)
	}
	if th.ProbeIters != 5 {
		t.Errorf("probe unit %d, want 5", th.ProbeIters)
	}
}

func TestCalibrateNoSignalFails(t *testing.T) {
	// Calibrating a receiver against a zebra (no conflict) must fail.
	g := DefaultGeometry()
	recv, _ := Build(Tiger(0x40000, g, "recv"))
	zeb, _ := Build(Zebra(0xC0000, g, "zeb"))
	merged, _ := asm.Merge(recv.Prog, zeb.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	if _, err := Calibrate(c, recv, zeb, 20, 5, 4); err == nil {
		t.Error("calibration against a zebra found a signal")
	}
}

func TestFastTigerFasterThanLCPTiger(t *testing.T) {
	g := Geometry{NSets: 4, NWays: 6}
	slow, _ := Build(Tiger(0x40000, g, "slow"))
	fast, _ := Build(FastTiger(0x80000, g, "fast"))
	merged, _ := asm.Merge(slow.Prog, fast.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)

	// Compare cold traversal costs: the LCP tiger pays predecoder
	// stalls, the fast tiger does not.
	c.FlushUopCache()
	slowCy, err := slow.Run(c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.FlushUopCache()
	fastCy, err := fast.Run(c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fastCy >= slowCy {
		t.Errorf("fast tiger (%d cycles) not faster than LCP tiger (%d)", fastCy, slowCy)
	}
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultGeometry()
	if g.NSets != 8 || g.NWays != 6 {
		t.Errorf("default geometry %+v, want the paper's 8×6 operating point", g)
	}
	if len(g.TigerSets()) != 8 {
		t.Errorf("tiger sets %v", g.TigerSets())
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	g := Geometry{NSets: 0, NWays: 0}
	if _, err := Build(Tiger(0x40000, g, "bad")); err == nil {
		t.Error("empty geometry accepted")
	}
}

// TestCheckpointedProbeEquals pins the restore property every
// checkpoint-forked measurement rests on: a probe after restoring the
// primed-core snapshot is byte-identical in cycles to a probe right
// after the prime the snapshot captured — and stays so on every later
// fork, even after a sender trashed the receiver's sets in between.
func TestCheckpointedProbeEquals(t *testing.T) {
	c, recv, send := calibrationRig(t)
	const primeIters, probeIters = 20, 5

	if _, err := recv.Run(c, 0, primeIters); err != nil {
		t.Fatal(err)
	}
	var ck cpu.Checkpoint
	c.Checkpoint(&ck)
	want, err := recv.Run(c, 0, probeIters)
	if err != nil {
		t.Fatal(err)
	}

	for fork := 0; fork < 3; fork++ {
		c.Restore(&ck)
		got, err := recv.Run(c, 0, probeIters)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fork %d: probe after restore took %d cycles, probe after prime took %d", fork, got, want)
		}
		// Dirty the core before the next fork so the restore has real
		// state to undo.
		if _, err := send.Run(c, 0, primeIters); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeasurePairs pins the calibration loop's contract with fake
// probes, no simulator: warm-up pairs run but are not recorded, the
// hit runs before the miss in every pair, the first error stops the
// loop, and fewer than one round runs nothing.
func TestMeasurePairs(t *testing.T) {
	var calls []string
	n := uint64(0)
	probe := func(side string) func() (uint64, error) {
		return func() (uint64, error) {
			calls = append(calls, side)
			n++
			return n, nil
		}
	}
	r, err := MeasurePairs(2, 3, 7, probe("hit"), probe("miss"))
	if err != nil {
		t.Fatal(err)
	}
	for i, side := range calls {
		if want := []string{"hit", "miss"}[i%2]; side != want {
			t.Fatalf("call %d ran %s, want %s (order %v)", i, side, want, calls)
		}
	}
	if len(calls) != 10 {
		t.Fatalf("%d probe calls, want 10 (2 warm-up + 3 recorded pairs)", len(calls))
	}
	// Calls 1-4 are the warm-up pairs; 5-10 the recorded ones.
	wantHit, wantMiss := []float64{5, 7, 9}, []float64{6, 8, 10}
	for i := range wantHit {
		if r.Hit[i] != wantHit[i] || r.Miss[i] != wantMiss[i] {
			t.Fatalf("recorded hit %v miss %v, want %v %v", r.Hit, r.Miss, wantHit, wantMiss)
		}
	}
	if len(r.Hit) != 3 || len(r.Miss) != 3 || r.ProbeIters != 7 {
		t.Errorf("rounds %+v, want 3 recorded pairs over 7 traversals", r)
	}

	boom := errors.New("probe failed")
	calls = nil
	failing := func() (uint64, error) {
		calls = append(calls, "miss")
		if len(calls) == 4 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := MeasurePairs(1, 5, 1, probe("hit"), failing); !errors.Is(err, boom) {
		t.Errorf("error %v, want the failing probe's", err)
	}
	if len(calls) != 4 {
		t.Errorf("%d calls after the failure, want the loop stopped at 4: %v", len(calls), calls)
	}

	for _, rounds := range []int{0, -1} {
		calls = nil
		if _, err := MeasurePairs(2, rounds, 1, probe("hit"), probe("miss")); err == nil {
			t.Errorf("rounds=%d accepted", rounds)
		}
		if len(calls) != 0 {
			t.Errorf("rounds=%d ran %d probes, want none", rounds, len(calls))
		}
	}
}

// TestThresholdErrNoSignal asserts both judgement failures wrap
// ErrNoSignal — the sub-floor separation and the overlapping
// distributions — so a sweep can tell a signal-less configuration from
// a real failure, and an empty calibration does not.
func TestThresholdErrNoSignal(t *testing.T) {
	cases := map[string]Rounds{
		"below floor": {Hit: []float64{100, 100}, Miss: []float64{110, 112}, ProbeIters: 5},
		"overlapping": {Hit: []float64{100, 300}, Miss: []float64{290, 400}, ProbeIters: 5},
	}
	for name, r := range cases {
		if _, err := r.Threshold(); !errors.Is(err, ErrNoSignal) {
			t.Errorf("%s: error %v does not wrap ErrNoSignal", name, err)
		}
	}
	if _, err := (Rounds{}).Threshold(); err == nil || errors.Is(err, ErrNoSignal) {
		t.Errorf("empty rounds: error %v, want a non-ErrNoSignal error", err)
	}
}

package main

// difftest drives the differential harness's point API the way its
// corpus tests do, one point at a time on one goroutine: Generate →
// Predict → NewPointRunner → Measure per direction → repeat Measures
// from the trained checkpoint. It uses the core differently from the
// figures: one core per victim, forked from checkpoints.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

const (
	// pointsPerRound rotates over the five profiles, ten points each.
	pointsPerRound = 50
	// repeats is the number of extra Measures per direction, each of
	// which must equal the first.
	repeats = 4
)

type difftestW struct {
	seed  uint64
	hs    []*difftest.Harness
	arena cpu.Arena
	// goldens maps a profile name to its canonical golden file, which
	// the benchmark reads and never writes.
	goldens map[string][]byte
}

func setupDifftest(o *options) (workload, error) {
	d := &difftestW{seed: o.seed, goldens: map[string][]byte{}}
	def := profile.Default().Name
	for _, p := range profile.All() {
		d.hs = append(d.hs, difftest.NewHarness(p))
		name := "canonical.golden"
		if p.Name != def {
			name = "canonical_" + p.Name + ".golden"
		}
		data, err := os.ReadFile(filepath.Join(o.root, "internal", "staticlint", "difftest", "testdata", name))
		if err != nil {
			return nil, fmt.Errorf("reading the canonical golden: %w", err)
		}
		d.goldens[p.Name] = data
	}
	return d, nil
}

// pointOut is what one point leaves behind for the exact counts and
// the canonical records.
type pointOut struct {
	res   difftest.Result
	first [2]difftest.Point // taken, fallthrough
	// repeatCycles is the simulated cycles of the repeat Measures.
	repeatCycles uint64
}

// point runs one seed under h, with every layer call in its own span.
func (d *difftestW) point(tr *tracer, h *difftest.Harness, seed uint64) (pointOut, error) {
	var out pointOut
	root := tr.begin("difftest.point", -1)
	defer tr.end(root)

	sp := tr.begin("codegen.generate", root)
	v, err := h.Generate(seed)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin("staticlint.predict", root)
	pred, err := h.Predict(v)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin("cpu.build", root)
	pr := h.NewPointRunner(v, &d.arena)
	tr.end(sp)

	secrets := [2]int64{1, 0}
	for i, s := range secrets {
		sp = tr.begin("cpu.measure_first", root)
		out.first[i], err = pr.Measure(s)
		tr.end(sp)
		if err != nil {
			return out, err
		}
	}
	for k := 0; k < repeats; k++ {
		for i, s := range secrets {
			sp = tr.begin("cpu.measure_repeat", root)
			p, err := pr.Measure(s)
			tr.end(sp)
			if err != nil {
				return out, err
			}
			if p != out.first[i] {
				return out, fmt.Errorf("seed %d (%s): repeat Measure(%d) = %+v, first = %+v",
					seed, h.Profile.Name, s, p, out.first[i])
			}
			out.repeatCycles += p.TotalCycles
		}
	}
	out.res = difftest.Result{
		Seed:       v.Seed,
		PredTaken:  pred.Taken,
		PredFall:   pred.Fall,
		MeasTaken:  out.first[0].Delta,
		MeasFall:   out.first[1].Delta,
		Victim:     v,
		Prediction: &pred,
		Profile:    h.Profile.Name,
		NoDSB:      !h.Profile.HasDSB(),
	}
	return out, out.res.Validate()
}

func (d *difftestW) round(b *bench, r int) time.Duration {
	var cycles, skipped, switches uint64
	start := time.Now()
	for i := 0; i < pointsPerRound; i++ {
		h := d.hs[i%len(d.hs)]
		seed := mix(d.seed ^ mix(uint64(r*pointsPerRound+i)))
		t := time.Now()
		out, err := d.point(b.tr, h, seed)
		b.op(time.Since(t), err)
		b.add("repeat_cycles", float64(out.repeatCycles))
		for _, p := range out.first {
			cycles += p.TotalCycles
			skipped += p.SkippedCycles
			switches += uint64(p.WarmSwitches + p.ColdSwitches)
		}
	}
	elapsed := time.Since(start)
	if r == 0 {
		b.exact["cpu.sim_cycles"] = strconv.FormatUint(cycles, 10)
		b.exact["cpu.skipped_cycles"] = strconv.FormatUint(skipped, 10)
		b.exact["frontend.dsb2mite_switches"] = strconv.FormatUint(switches, 10)
	}
	return elapsed
}

// canonicalRecord is one entry of a canonical golden file.
type canonicalRecord struct {
	Seed      uint64 `json:"seed"`
	Victim    string `json:"victim"`
	PredTaken int    `json:"predicted_taken_delta_cycles"`
	PredFall  int    `json:"predicted_fallthrough_delta_cycles"`
	MeasTaken int    `json:"measured_taken_delta_cycles"`
	MeasFall  int    `json:"measured_fallthrough_delta_cycles"`
}

// finish reruns each profile's canonical seeds through the same point
// path and requires the golden file's bytes back.
func (d *difftestW) finish(b *bench) {
	for _, h := range d.hs {
		b.oracle(d.checkCanonical(h))
	}
}

func (d *difftestW) checkCanonical(h *difftest.Harness) error {
	golden := d.goldens[h.Profile.Name]
	var want []canonicalRecord
	if err := json.Unmarshal(golden, &want); err != nil {
		return fmt.Errorf("canonical golden for %s: %w", h.Profile.Name, err)
	}
	got := make([]canonicalRecord, 0, len(want))
	for _, w := range want {
		out, err := d.point(nil, h, w.Seed)
		if err != nil {
			return fmt.Errorf("canonical seed %d (%s): %w", w.Seed, h.Profile.Name, err)
		}
		r := out.res
		got = append(got, canonicalRecord{
			Seed: r.Seed, Victim: r.Describe(),
			PredTaken: r.PredTaken, PredFall: r.PredFall,
			MeasTaken: r.MeasTaken, MeasFall: r.MeasFall,
		})
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(append(data, '\n'), golden) {
		return fmt.Errorf("canonical seeds under %s drifted from the golden:\n%s", h.Profile.Name, data)
	}
	return nil
}

func (d *difftestW) layers(b *bench, m map[string]float64) {
	self, _ := b.tr.selfTimes()
	for _, name := range []string{"codegen.generate", "staticlint.predict", "cpu.build", "cpu.measure_first", "cpu.measure_repeat"} {
		m[name+"_s"] = self[name] / float64(len(b.ops))
	}
	if t := self["cpu.measure_repeat"]; t > 0 {
		m["cpu.sim_cycles_per_s"] = b.counts["repeat_cycles"] / t
	}
	cycles, _ := strconv.ParseFloat(b.exact["cpu.sim_cycles"], 64)
	skipped, _ := strconv.ParseFloat(b.exact["cpu.skipped_cycles"], 64)
	switches, _ := strconv.ParseFloat(b.exact["frontend.dsb2mite_switches"], 64)
	m["cpu.sim_cycles"] = cycles
	m["frontend.dsb2mite_switches"] = switches
	if cycles > 0 {
		m["cpu.skipped_frac"] = skipped / cycles
	}
}

func (d *difftestW) close() {}

package main

// trace.go is the traced half of a --trace 1 run: spans recorded in
// memory around every call into a layer, runtime/metrics deltas and a
// CPU profile, turned into the per-layer metrics. None of it runs in
// an untimed-metric phase: there the tracer is nil and every span call
// returns at once.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"deaduops/internal/experiments"
)

type spec struct{ name, unit string }

// endToEnd lists the metrics of a --trace 0 run, in BENCHMARK.json order.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"ok_rate", "frac"},
}

// profPackages maps each layer's prof_share metric to its Go package.
var profPackages = []struct{ name, pkg string }{
	{"experiments", "deaduops/internal/experiments"},
	{"attack", "deaduops/internal/attack"},
	{"channel", "deaduops/internal/channel"},
	{"transient", "deaduops/internal/transient"},
	{"ecc", "deaduops/internal/ecc"},
	{"cpu", "deaduops/internal/cpu"},
	{"frontend", "deaduops/internal/frontend"},
	{"decode", "deaduops/internal/decode"},
	{"uopcache", "deaduops/internal/uopcache"},
	{"backend", "deaduops/internal/backend"},
	{"bpu", "deaduops/internal/bpu"},
	{"mem", "deaduops/internal/mem"},
	{"perfctr", "deaduops/internal/perfctr"},
	{"staticlint", "deaduops/internal/staticlint"},
	{"difftest", "deaduops/internal/staticlint/difftest"},
	{"auditd", "deaduops/internal/auditd"},
	{"parsweep", "deaduops/internal/parsweep"},
	{"encoding_json", "encoding/json"},
	{"net_http", "net/http"},
}

// gcRoots are the runtime's background collector goroutines; their
// cumulative samples are the gc.prof_share (assists inside mallocgc are
// in runtime.mallocgc.prof_share instead).
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// perLayer lists the metrics of a --trace 1 run, in BENCHMARK.json order.
func perLayer() []spec {
	var out []spec
	for _, id := range experiments.IDs() {
		out = append(out, spec{"experiments." + id + "_s", "s"})
	}
	out = append(out,
		spec{"codegen.generate_s", "s"},
		spec{"staticlint.predict_s", "s"},
		spec{"cpu.build_s", "s"},
		spec{"cpu.measure_first_s", "s"},
		spec{"cpu.measure_repeat_s", "s"},
		spec{"cpu.sim_cycles", "cycles"},
		spec{"cpu.skipped_frac", "frac"},
		spec{"frontend.dsb2mite_switches", "count"},
		spec{"cpu.sim_cycles_per_s", "cycles/s"},
		spec{"auditd.submit_ms", "ms"},
		spec{"auditd.fetch_ms", "ms"},
		spec{"auditd.polls_per_job", "count"},
		spec{"staticlint.func_hit_frac", "frac"},
		spec{"staticlint.report_hit_frac", "frac"},
		spec{"staticlint.func_misses", "count"},
		spec{"runtime.alloc_mb", "MiB"},
		spec{"runtime.mallocs", "count"},
		spec{"runtime.gc_cycles", "count"},
		spec{"runtime.gc_cpu_frac", "frac"},
	)
	for _, p := range profPackages {
		out = append(out, spec{p.name + ".prof_share", "frac"})
	}
	out = append(out,
		spec{"runtime.mallocgc.prof_share", "frac"},
		spec{"gc.prof_share", "frac"},
		spec{"exact.mismatches", "count"},
		spec{"trace.overhead_frac", "frac"},
	)
	return out
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes a span, renaming it when name is not empty.
func (t *tracer) endAs(id int, name string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if name != "" {
		t.spans[id].Name = name
	}
}

// selfTimes returns each span name's total self time in seconds — its
// duration minus the part its child spans cover — and its span count.
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, n := map[string]float64{}, map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		n[s.Name]++
	}
	return self, n
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// runTraced runs the second half of a --trace 1 run with spans, the
// CPU profile and runtime metrics attached, and writes the spans and
// the profile under o.out.
func runTraced(o *options, w workload) (*bench, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-%d", o.workload, o.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	before := readRuntime()
	tr := newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	b := runPhase(w, o.seconds/2, tr)
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := f.Close(); err != nil {
		return nil, err
	}
	for i := range after {
		b.counts[runtimeSamples[i]] = after[i] - before[i]
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	return b, nil
}

// layerMetrics assembles the per-layer metrics of a --trace 1 run.
// Span self-times and runtime counts are per operation of the traced
// phase, so they do not depend on how many operations fit in it.
func layerMetrics(o *options, w workload, plain, traced *bench) (map[string]float64, error) {
	m := map[string]float64{}
	ops := float64(len(traced.ops))
	rt := func(name string) float64 { return traced.counts[name] / ops }
	m["runtime.alloc_mb"] = rt("/gc/heap/allocs:bytes") / (1 << 20)
	m["runtime.mallocs"] = rt("/gc/heap/allocs:objects")
	m["runtime.gc_cycles"] = rt("/gc/cycles/total:gc-cycles")
	if cpu := traced.counts["/cpu/classes/total:cpu-seconds"]; cpu > 0 {
		m["runtime.gc_cpu_frac"] = traced.counts["/cpu/classes/gc/total:cpu-seconds"] / cpu
	}
	m["exact.mismatches"] = plain.counts["exact.mismatches"]
	m["trace.overhead_frac"] = quantile(traced.rounds, 0.5)/quantile(plain.rounds, 0.5) - 1
	w.layers(traced, m)

	shares, err := profShares(filepath.Join(o.out, fmt.Sprintf("%s-%d.cpu.pprof", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	return m, nil
}

// profShares reads the CPU profile with `go tool pprof -top` and
// returns each layer package's flat share of the samples, plus the
// cumulative shares of runtime.mallocgc and the background collector.
func profShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flatByPkg := map[string]float64{}
	cum := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		flat, err1 := parseMS(f[0])
		c, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		total += flat
		flatByPkg[funcPackage(fn)] += flat
		cum[fn] += c
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", path)
	}
	m := map[string]float64{}
	for _, p := range profPackages {
		m[p.name+".prof_share"] = flatByPkg[p.pkg] / total
	}
	m["runtime.mallocgc.prof_share"] = cum["runtime.mallocgc"] / total
	gc := 0.0
	for _, r := range gcRoots {
		gc += cum[r]
	}
	m["gc.prof_share"] = gc / total
	return m, nil
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// funcPackage returns the import path of a profiled function name such
// as deaduops/internal/cpu.(*CPU).Run or parsweep.Map[go.shape.int].
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

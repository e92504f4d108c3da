// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator, the static analyzer and the audit daemon through the
// entry points a user calls (experiments.Registry, the difftest.Harness
// point API and auditd.Server over loopback HTTP), checks every output,
// and prints one JSON result line. README.md describes the workloads
// and the metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload figures|difftest|audit --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is timed with nothing attached and prints the
// end-to-end metrics. With --trace 1 the first half of the run is timed
// the same way and the second half records spans and a CPU profile,
// which give the per-layer metrics and the tracing overhead.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed whose figure digests and exact counts are
// stored in testdata/expected.json.
const defaultSeed = 1

// maxPar caps the cores every workload is sized for: the figure sweep
// pool, the audit clients and the daemon's workers. Fixing it keeps the
// workload the same on hosts of different sizes.
const maxPar = 2

// setupProbes is how many child processes measure setup_s.
const setupProbes = 51

//go:embed testdata/expected.json
var expectedJSON []byte

// expected holds the default seed's figure digests and exact counts.
type expected struct {
	Seed    uint64            `json:"seed"`
	Figures map[string]string `json:"figures"`
	Exact   map[string]string `json:"exact"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the checkout root, the working directory of a run;
	// goldens are read relative to it.
	root string
	// out receives spans, CPU profiles and exact-count records.
	out string
	// probes is the number of child processes that measure setup_s;
	// 0 times the in-process set-up instead.
	probes int
	par    int
	want   expected
}

// workload is one benchmark workload after set-up.
type workload interface {
	// round runs the r-th fixed unit of work, records each operation in
	// b and returns the unit's wall time.
	round(b *bench, r int) time.Duration
	// finish runs the untimed oracles once the timed rounds are over.
	finish(b *bench)
	// layers adds the workload's own per-layer metrics of a traced phase.
	layers(b *bench, m map[string]float64)
	close()
}

var setups = map[string]func(o *options) (workload, error){
	"figures":  setupFigures,
	"difftest": setupDifftest,
	"audit":    setupAudit,
}

// bench collects one phase of a run: operation latencies, round times,
// check outcomes and the exact counts of round 0.
type bench struct {
	tr *tracer // nil in an untimed-metric phase

	mu        sync.Mutex
	ops       []float64 // seconds
	rounds    []float64 // seconds
	peaks     []float64 // peak resident set of each round, MiB
	attempted int
	failed    int
	errs      []string
	exact     map[string]string
	counts    map[string]float64
}

func newBench(tr *tracer) *bench {
	return &bench{tr: tr, exact: map[string]string{}, counts: map[string]float64{}}
}

// op records one timed operation; err marks it failed.
func (b *bench) op(lat time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops = append(b.ops, lat.Seconds())
	b.record(err)
}

// oracle records one check that is not an operation of its own.
func (b *bench) oracle(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.record(err)
}

func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 10 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

func (b *bench) add(name string, v float64) {
	b.mu.Lock()
	b.counts[name] += v
	b.mu.Unlock()
}

// runPhase repeats rounds until seconds have passed, at least once.
func runPhase(w workload, seconds float64, tr *tracer) *bench {
	b := newBench(tr)
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		resetPeakRSS()
		b.rounds = append(b.rounds, w.round(b, r).Seconds())
		b.peaks = append(b.peaks, peakRSSMB())
	}
	return b
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, probe, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(o.par)
	if probe {
		os.Exit(setupProbe(o))
	}
	res, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*options, bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{root: ".", probes: setupProbes, par: min(runtime.NumCPU(), maxPar)}
	fs.StringVar(&o.workload, "workload", "", "figures, difftest or audit")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and a CPU profile in the second half of the run")
	probe := fs.Bool("setup-probe", false, "run the workload's set-up, print ready and exit (measures setup_s)")
	if err := fs.Parse(args); err != nil {
		return nil, false, err
	}
	if _, ok := setups[o.workload]; !ok {
		return nil, false, fmt.Errorf("unknown workload %q (want figures, difftest or audit)", o.workload)
	}
	if *trace != 0 && *trace != 1 {
		return nil, false, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds <= 0 {
		return nil, false, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = *trace == 1
	o.out = filepath.Join(o.root, ".bench_build", "perfbench")
	if err := json.Unmarshal(expectedJSON, &o.want); err != nil {
		return nil, false, fmt.Errorf("parsing expected.json: %w", err)
	}
	return o, *probe, nil
}

// setupProbe is the child side of the setup_s measurement: set up,
// report ready on stdout, tear down.
func setupProbe(o *options) int {
	w, err := setups[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("ready")
	w.close()
	return 0
}

// measure sets the workload up, runs it and returns the result line.
func measure(o *options) (*result, error) {
	t0 := time.Now()
	w, err := setups[o.workload](o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	inProcSetup := time.Since(t0).Seconds()

	var plain, traced *bench
	if !o.trace {
		plain = runPhase(w, o.seconds, nil)
		w.finish(plain)
	} else {
		plain = runPhase(w, o.seconds/2, nil)
		if traced, err = runTraced(o, w); err != nil {
			return nil, err
		}
		w.finish(traced)
	}
	checkExact(o, plain, traced)

	res := &result{Metrics: map[string]metric{}}
	for _, b := range []*bench{plain, traced} {
		if b == nil {
			continue
		}
		res.Attempted += b.attempted
		res.Failed += b.failed
		for _, e := range b.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if o.trace {
		m, err := layerMetrics(o, w, plain, traced)
		if err != nil {
			return nil, err
		}
		for _, s := range perLayer() {
			res.Metrics[s.name] = metric{m[s.name], s.unit}
		}
		return res, nil
	}

	setup := inProcSetup
	if o.probes > 0 {
		if setup, err = probeSetup(o); err != nil {
			return nil, err
		}
	}
	ok := 1 - float64(res.Failed)/float64(res.Attempted)
	p50, p95 := quantile(plain.ops, 0.50), quantile(plain.ops, 0.95)
	if n := len(plain.ops); n < 200 {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations, fewer than 10 beyond p95\n", n)
	}
	vals := map[string]float64{
		"setup_s":     setup,
		"wall_s":      quantile(plain.rounds, 0.5),
		"op_p50_ms":   1e3 * p50,
		"op_p95_ms":   1e3 * p95,
		"peak_rss_mb": quantile(plain.peaks, 0.5),
		"ok_rate":     ok,
	}
	for _, s := range endToEnd {
		res.Metrics[s.name] = metric{vals[s.name], s.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, %d operations on %d cores\n",
		o.workload, o.seed, len(plain.rounds), len(plain.ops), o.par)
	return res, nil
}

// probeSetup runs the workload's set-up in o.probes child processes and
// returns the median time from starting a child to its ready line:
// process start, package initialisation and the workload's set-up.
func probeSetup(o *options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var ts []float64
	for i := 0; i < o.probes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("starting set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(start).Seconds()
		_, _ = io.Copy(io.Discard, out) // drain so the child never blocks
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return 0, fmt.Errorf("set-up probe failed: %v", errors.Join(rerr, werr))
		}
		ts = append(ts, d)
	}
	return quantile(ts, 0.5), nil
}

// checkExact compares round 0's exact counts and digests with the
// traced phase's round 0, with the stored default-seed values and with
// the last run of the same seed in this checkout. A mismatch means the
// simulated model changed, which is a different verdict from any
// timing: it is reported on stderr and in the traced run's
// exact.mismatches, and never counted as a timing change.
func checkExact(o *options, plain, traced *bench) {
	var msgs []string
	diff := func(what string, want map[string]string) {
		for _, k := range sortedKeys(want) {
			if got, ok := plain.exact[k]; ok && got != want[k] {
				msgs = append(msgs, fmt.Sprintf("%s %s: want %s, got %s", what, k, want[k], got))
			}
		}
	}
	if traced != nil {
		diff("traced phase", traced.exact)
	}
	if o.seed == o.want.Seed {
		want := map[string]string{}
		for k, v := range o.want.Exact {
			want[k] = v
		}
		for id, d := range o.want.Figures {
			want["figures."+id] = d
		}
		diff("stored default seed", want)
	}
	// The record always holds the latest run, so after an intentional
	// model change only the first run of a seed reports it.
	rec := filepath.Join(o.out, "exact", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	if data, err := os.ReadFile(rec); err == nil {
		var prev map[string]string
		if json.Unmarshal(data, &prev) == nil {
			diff("previous run", prev)
		}
	}
	if data, err := json.MarshalIndent(plain.exact, "", "  "); err == nil && len(plain.exact) > 0 {
		if os.MkdirAll(filepath.Dir(rec), 0o755) == nil {
			_ = os.WriteFile(rec, data, 0o644) // a lost record only skips the next comparison
		}
	}
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "perfbench: the model changed:", m)
	}
	plain.counts["exact.mismatches"] = float64(len(msgs))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resetPeakRSS lowers the process's VmHWM to its current resident set,
// so that each round's peak is measured on its own. Where the kernel
// refuses, VmHWM stays the peak since process start.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5") // best effort, see above
	_ = f.Close()
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// mix is splitmix64's finaliser: it turns the workload seed and an
// index into an independent 64-bit input.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

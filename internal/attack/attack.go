// Package attack implements the paper's §IV framework: automatic
// generation of tiger and zebra functions and the timing probe built on
// them.
//
// Two tigers replicate each other's micro-op cache footprint — same
// sets, same ways — so executing one evicts the other and produces a
// timing signal. A zebra occupies sets mutually exclusive with its
// tiger, so the pair never conflict. The functions are long chains of
// LCP-padded NOPs ending in jumps: almost no back-end work, maximal
// legacy-decode cost, which sharpens the µop-cache hit/miss timing
// difference into a clean binary signal.
package attack

import (
	"errors"
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

// Geometry selects which part of the micro-op cache a tiger/zebra pair
// fights over.
type Geometry struct {
	// NSets is the number of (evenly spaced) sets occupied; NWays the
	// ways used in each. The paper's best channel probes 8 sets × 6
	// ways, leaving two ways free so unrelated code doesn't obscure
	// the signal.
	NSets int
	NWays int
	// FirstSet offsets the striping; a zebra uses a first set
	// interleaved between its tiger's stripes (Fig 8).
	FirstSet int
	// CacheSets is the modelled cache's total set count the stripes
	// spread across and the way stride derives from; 0 selects the
	// classic 32-set layout, keeping every historical chain address
	// byte-identical. The profile matrix sets it from the profile's
	// geometry so a Zen 2 channel stripes all 64 sets.
	CacheSets int
}

// DefaultGeometry returns the paper's best-bandwidth configuration.
func DefaultGeometry() Geometry { return Geometry{NSets: 8, NWays: 6} }

// TigerSets returns the set indices a tiger with this geometry touches.
func (g Geometry) TigerSets() []int {
	return codegen.EvenSetsIn(g.CacheSets, g.NSets, g.FirstSet)
}

// ZebraSets returns set indices mutually exclusive with TigerSets:
// shifted by half a stripe.
func (g Geometry) ZebraSets() []int {
	total := g.CacheSets
	if total <= 0 {
		total = codegen.WayStride / codegen.RegionSize
	}
	stride := total / g.NSets
	if stride == 0 {
		stride = 1
	}
	return codegen.EvenSetsIn(g.CacheSets, g.NSets, g.FirstSet+stride/2+stride%2)
}

// Tiger returns the chain spec of a tiger at base with geometry g:
// codegen.ProbeChain regions (two LCP-padded 14-byte NOPs plus the
// chain jump per region) over the geometry's even stripes. Distinct
// tigers at different bases but equal geometry conflict; a tiger and
// the zebra of the same geometry never do.
func Tiger(base uint64, g Geometry, label string) *codegen.ChainSpec {
	spec := codegen.ProbeChain(base, g.TigerSets(), g.NWays, label)
	spec.NumSets = g.CacheSets
	return spec
}

// FastTiger returns a tiger variant optimized for eviction throughput
// rather than timing contrast: single-µop regions with no LCP padding
// decode quickly, so a sender can sweep its sets many times while a
// victim's window is open (used by the cross-SMT Trojan).
func FastTiger(base uint64, g Geometry, label string) *codegen.ChainSpec {
	return &codegen.ChainSpec{
		Base: base, Sets: g.TigerSets(), Ways: g.NWays, NumSets: g.CacheSets,
		Label: label,
	}
}

// Zebra returns the chain spec of the zebra companion at base.
func Zebra(base uint64, g Geometry, label string) *codegen.ChainSpec {
	spec := codegen.ProbeChain(base, g.ZebraSets(), g.NWays, label)
	spec.NumSets = g.CacheSets
	return spec
}

// Routine is an assembled tiger or zebra, runnable on a CPU.
type Routine struct {
	Spec  *codegen.ChainSpec
	Prog  *asm.Program
	Entry uint64
}

// Build assembles spec into a standalone looped routine (loop count in
// R14, preset per run). The loop tail is placed in the first set past
// the chain's first set that the chain does not occupy
// (codegen.ChainSpec.TailAddr) — outside both a tiger's and its
// zebra's stripes, and outside an arbitrary probe chain's set list, so
// the tail's own line never pollutes a probed set.
func Build(spec *codegen.ChainSpec) (*Routine, error) {
	prog, err := spec.LoopProgram(spec.TailAddr())
	if err != nil {
		return nil, fmt.Errorf("attack: building %s: %w", spec.Label, err)
	}
	return &Routine{Spec: spec, Prog: prog, Entry: prog.Entry}, nil
}

// Run executes the routine for iters traversals on thread t and
// returns the elapsed cycles — the RDTSC-bracketed timing measurement
// of the paper, in simulated cycles.
func (r *Routine) Run(c *cpu.CPU, t int, iters int64) (uint64, error) {
	c.SetReg(t, isa.R14, iters)
	res := c.Run(t, r.Entry, 20_000_000)
	if res.TimedOut {
		return 0, fmt.Errorf("attack: routine %s timed out", r.Spec.Label)
	}
	return res.Cycles, nil
}

// SeparationFloor is the minimum MissMean/HitMean ratio Calibrate
// accepts as a usable timing signal: below 1.3× the hit and miss
// distributions sit within noise of each other and the channel cannot
// decode bits reliably. The static receiver model
// (internal/staticlint) holds its predicted separation margins to the
// same floor.
const SeparationFloor = 1.3

// Threshold separates µop-cache-hit from µop-cache-miss probe timings.
//
// Unit: every cycle field is the elapsed time of ONE probe measurement
// — i.e. the total cycles of ProbeIters chain traversals — not a
// per-traversal figure. Thresholds calibrated with different
// probeIters are therefore in different units; compare across
// configurations only through PerTraversal.
type Threshold struct {
	// HitMean/MissMean are the per-round probe-time averages with the
	// receiver's sets intact (hit) and evicted by the sender (miss).
	HitMean  float64
	MissMean float64
	// HitMin/HitMax and MissMin/MissMax record each distribution's
	// per-round spread, so one outlier round is visible instead of
	// silently folded into a mean.
	HitMin, HitMax   float64
	MissMin, MissMax float64
	// Cut is the decision boundary: the midpoint of the two means,
	// clamped into the observed gap between HitMax and MissMin so that
	// an outlier round cannot drag it past either cluster.
	Cut float64
	// ProbeIters is the traversal count of one probe measurement — the
	// unit of every cycle field above. Zero in hand-built thresholds
	// means the unit is unrecorded.
	ProbeIters int64
}

// Hit classifies a probe time. The boundary side is deliberate and
// decode paths must agree with it: a probe landing exactly on Cut
// classifies as a MISS (strict <), because unexplained extra latency
// is evidence of eviction — the conservative side for a receiver that
// must not drop transmitted bits.
func (th Threshold) Hit(cycles uint64) bool { return float64(cycles) < th.Cut }

// Miss is the complement of Hit; decode paths that signal on eviction
// use it so the exactly-on-Cut convention lives in one place.
func (th Threshold) Miss(cycles uint64) bool { return !th.Hit(cycles) }

// PerTraversal converts a total-probe-cycles quantity (HitMean,
// MissMean, Cut, …) to per-traversal cycles using the recorded
// ProbeIters. With no recorded unit it returns v unchanged.
func (th Threshold) PerTraversal(v float64) float64 {
	if th.ProbeIters <= 0 {
		return v
	}
	return v / float64(th.ProbeIters)
}

// SendFunc is the sender half of one calibration round: whatever
// eviction activity the opponent performs between the receiver's prime
// and probe — a conflicting tiger's traversals for the covert channel,
// or a victim program's runs for the static model's validation
// harness.
type SendFunc func() error

// Rounds holds the raw per-round probe timings of one calibration:
// every hit-round and miss-round measurement, in cycles over
// ProbeIters traversals.
type Rounds struct {
	Hit, Miss  []float64
	ProbeIters int64
}

// MeasurePairs is the one calibration loop every receiver shares. It
// runs warmup (hit, miss) pairs whose timings are discarded — cold
// compulsory misses and untrained predictors would otherwise poison
// the threshold — then rounds recorded pairs, hit first in each pair.
// hit and miss each return one probe time in cycles over probeIters
// traversals. The first error stops the loop; rounds < 1 is an error
// and runs nothing, since no threshold reduces from empty rounds.
func MeasurePairs(warmup, rounds int, probeIters int64, hit, miss func() (uint64, error)) (Rounds, error) {
	r := Rounds{ProbeIters: probeIters}
	if rounds < 1 {
		return r, fmt.Errorf("attack: %d calibration rounds, need at least 1", rounds)
	}
	for i := 0; i < warmup+rounds; i++ {
		hc, err := hit()
		if err != nil {
			return r, err
		}
		mc, err := miss()
		if err != nil {
			return r, err
		}
		if i >= warmup {
			r.Hit = append(r.Hit, float64(hc))
			r.Miss = append(r.Miss, float64(mc))
		}
	}
	return r, nil
}

// MeasureRounds runs the prime+probe calibration protocol through
// MeasurePairs and returns the raw per-round timings. Each round
// measures a hit (prime, then probe with nothing in between) and a
// miss (prime, sender activity, probe). The receiver primes with
// primeIters traversals — enough to reclaim its sets from a hot
// opponent under the hotness replacement policy — and probes with
// probeIters (few, so a misowned set cannot be reclaimed
// mid-measurement).
func MeasureRounds(c *cpu.CPU, receiver *Routine, send SendFunc, primeIters, probeIters int64, rounds int) (Rounds, error) {
	return MeasurePairs(0, rounds, probeIters, func() (uint64, error) {
		if _, err := receiver.Run(c, 0, primeIters); err != nil {
			return 0, err
		}
		return receiver.Run(c, 0, probeIters)
	}, func() (uint64, error) {
		if _, err := receiver.Run(c, 0, primeIters); err != nil {
			return 0, err
		}
		if err := send(); err != nil {
			return 0, err
		}
		return receiver.Run(c, 0, probeIters)
	})
}

func meanMinMax(v []float64) (mean, min, max float64) {
	min, max = v[0], v[0]
	for _, x := range v {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return mean / float64(len(v)), min, max
}

// Stats reduces the raw rounds to threshold statistics without
// judging them: means, per-round spreads, and the cut. The cut starts
// at the midpoint of the two means; when the observed distributions do
// not overlap it is clamped into the gap between HitMax and MissMin,
// so a single outlier round (one anomalously slow miss, say) cannot
// drag the cut past the rest of its cluster — the failure mode of
// reducing rounds to running sums alone. It is the one reduction every
// calibrating receiver applies; each then judges the result by its own
// acceptance rule. Rounds must be non-empty on both sides, as
// MeasurePairs guarantees.
func (r Rounds) Stats() Threshold {
	th := Threshold{ProbeIters: r.ProbeIters}
	th.HitMean, th.HitMin, th.HitMax = meanMinMax(r.Hit)
	th.MissMean, th.MissMin, th.MissMax = meanMinMax(r.Miss)
	th.Cut = (th.HitMean + th.MissMean) / 2
	if th.MissMin > th.HitMax && (th.Cut >= th.MissMin || th.Cut <= th.HitMax) {
		th.Cut = (th.HitMax + th.MissMin) / 2
	}
	return th
}

// Spread renders both distributions with their per-round extremes for
// diagnostics.
func (th Threshold) Spread() string {
	return fmt.Sprintf("hit %.0f [%.0f..%.0f], miss %.0f [%.0f..%.0f] cycles over %d traversals",
		th.HitMean, th.HitMin, th.HitMax, th.MissMean, th.MissMin, th.MissMax, th.ProbeIters)
}

// ErrNoSignal marks a calibration whose hit and miss timings do not
// separate: the channel cannot decode bits in that configuration.
// Callers sweeping configurations test for it with errors.Is to tell a
// signal-less point from a real failure.
var ErrNoSignal = errors.New("attack: no timing signal")

// Threshold reduces the raw rounds to a decision threshold (see
// Stats). It returns an error wrapping ErrNoSignal — carrying both
// distributions' spreads, not just the means — when the separation is
// below SeparationFloor or the distributions overlap.
func (r Rounds) Threshold() (Threshold, error) {
	th := Threshold{ProbeIters: r.ProbeIters}
	if len(r.Hit) == 0 || len(r.Miss) == 0 {
		return th, fmt.Errorf("attack: no calibration rounds recorded")
	}
	th = r.Stats()
	// Demand meaningful separation, not just a few cycles of noise.
	if th.MissMean <= th.HitMean*SeparationFloor {
		return th, fmt.Errorf("%w (%s)", ErrNoSignal, th.Spread())
	}
	if th.MissMin <= th.HitMax {
		return th, fmt.Errorf("%w: hit/miss distributions overlap (%s)", ErrNoSignal, th.Spread())
	}
	return th, nil
}

// Calibrate measures the receiver tiger's probe time with and without a
// conflicting sender tiger (primeIters traversals of it per miss
// round) and returns the decision threshold. rounds controls the
// averaging; the per-round spread is kept in the threshold.
func Calibrate(c *cpu.CPU, receiver, sender *Routine, primeIters, probeIters int64, rounds int) (Threshold, error) {
	r, err := MeasureRounds(c, receiver, func() error {
		_, err := sender.Run(c, 0, primeIters)
		return err
	}, primeIters, probeIters, rounds)
	if err != nil {
		return Threshold{ProbeIters: probeIters}, err
	}
	return r.Threshold()
}

package staticlint

// The receiver model: translates a dsb-footprint-divergence finding's
// per-direction footprints into the numbers the paper's attacker
// actually sees. A prime+probe receiver never observes a victim's
// refill delta directly — it times its OWN probe chain (§IV: a
// tiger-shaped chain over the conflicting sets) and classifies each
// timing against a calibrated hit/miss threshold. This file simulates
// that receiver symbolically: it builds the concrete probe routine a
// receiver would run over the finding's divergent sets, prices one
// probe measurement (ProbeIters loop traversals) with the shared cost
// table in both the hit state (every receiver line resident, the state
// the priming traversals establish) and the per-direction miss states
// (the victim's predicted footprint has displaced receiver lines), and
// derives the decision threshold and separation margin the
// attack.Calibrate protocol would compute from those timings. The
// predictions are validated end to end — against the actual
// internal/attack prime/probe loop running on the cycle-level
// simulator — by internal/staticlint/difftest.

import (
	"fmt"
	"math"

	"deaduops/internal/codegen"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// probeSeg is one replayable fetch segment of the modelled protocol:
// the fetch address the frontend looks up, the trace a MITE refill
// would install, and the refill delta a timed miss of the segment adds.
type probeSeg struct {
	addr  uint64
	trace *uopcache.Trace
	delta int
}

const (
	// ReceiverBase is the address the modelled receiver routine is laid
	// out at. The concrete value only matters to the validation harness
	// (which loads the receiver next to the victim, so the two must not
	// overlap); the predicted cycles are address-independent because
	// the probe chain's set placement is explicit.
	ReceiverBase = 0x40000

	// DefaultProbeIters mirrors the covert channel's operating point
	// (channel.DefaultConfig, the paper's 5 samples): few traversals,
	// so a probed set lost to the victim cannot be reclaimed
	// mid-measurement — each evicted line stays evicted for every
	// probe traversal, which is what makes the miss cost scale with
	// ProbeIters × evicted lines.
	DefaultProbeIters = 5

	// DefaultPrimeTraversals is the priming count the model's protocol
	// assumes. Reclaiming one victim line from a full probed set costs
	// up to Ways × HotnessMax failed-fill decrements spread round-robin
	// across the set (the worst case is a single hot victim line:
	// ~8 × 8 = 64 traversals on the Skylake model); 160 covers it with
	// margin. The covert channel gets away with 20 because its sender
	// re-evicts wholesale every bit; a victim's footprint must be worn
	// down line by line.
	DefaultPrimeTraversals = 160

	// DefaultVictimRuns is how many times the modelled protocol lets
	// the victim execute between prime and probe. The dual of the
	// priming wear: the victim's own lines must out-access the primed
	// receiver before they install (a single-line victim needs ~65 runs
	// against a full 8-way hot set); 100 installs every footprint the
	// placement rules admit, with margin.
	DefaultVictimRuns = 100

	// ProbeSeparationFloor is the minimum hit/miss ratio the modelled
	// receiver counts as a decodable signal. It mirrors
	// attack.SeparationFloor (pinned to it by a contract test in
	// internal/staticlint/difftest); the constant is duplicated rather
	// than imported so the static analyzer does not depend on the
	// attack runtime.
	ProbeSeparationFloor = 1.3

	// probeRunOverhead is the fixed per-measurement cost the timed
	// probe run pays beyond its fetch stream: the pipeline-fill depth
	// of a fetch-bound run (the probe chain delivers 3 µops/cycle,
	// under the 4-wide drain, so the drain-bound DrainLag path never
	// engages) plus the loop-exit mispredict flush of the final
	// traversal's backward branch. Calibrated once against
	// internal/cpu and continuously re-validated by the differential
	// harness, like staticlint.DefaultDrainLag.
	probeRunOverhead = 12
)

// ReceiverSpec returns the chain spec of the modelled probe receiver
// over the given sets: tiger-shaped regions (codegen.ProbeChain)
// occupying every way of each probed set, so a victim line installed
// in a probed set must displace a receiver line and every displaced
// line is visible to the probe. The validation harness builds its
// measured receiver from this same spec, so the routine the model
// prices and the routine the simulator times cannot drift apart.
func ReceiverSpec(cfg Config, sets []int) *codegen.ChainSpec {
	spec := codegen.ProbeChain(ReceiverBase, sets, cfg.UopCache.Ways, "probe")
	// The probe chain must honour the profile's set count: on a 64-set
	// (Zen 2-like) geometry the classic 1 KiB way stride would alias
	// way k of set s into set s+32 instead of conflicting.
	spec.NumSets = cfg.UopCache.Sets
	return spec
}

// ProbeBin is one predicted probe-time distribution of the receiver —
// the hit state or one secret direction's miss state. The model is
// deterministic, so each "distribution" is a point mass at Cycles; the
// calibration-protocol statistics derived from it (threshold cut,
// separation) are what an attacker's histogram of repeated rounds
// would converge to.
type ProbeBin struct {
	// EvictedLines is the number of receiver lines this direction's
	// predicted footprint installs over across the probed sets (capped
	// at the receiver's ways per set) — the static intersection, before
	// replacement dynamics.
	EvictedLines int `json:"evicted_lines"`
	// ProbeMisses is the number of fetch segments the timed probe
	// missed in the protocol replay. Under the hotness policy this
	// exceeds EvictedLines: the probe's own failed refills of a missing
	// region can displace worn-out neighbours mid-traversal.
	ProbeMisses int `json:"probe_misses"`
	// Cycles is the predicted probe measurement: total cycles of
	// ProbeIters traversals, the same unit attack.Threshold records.
	Cycles int `json:"predicted_cycles"`
	// PerTraversal is Cycles normalized by the probe traversal count
	// (attack.Threshold.PerTraversal's unit).
	PerTraversal float64 `json:"per_traversal_cycles"`
	// Cut is the decision threshold attack.Calibrate would derive for
	// this direction against the hit state: the hit/miss midpoint.
	Cut float64 `json:"threshold_cut"`
	// Separation is the predicted MissMean/HitMean ratio the Calibrate
	// protocol checks against its floor.
	Separation float64 `json:"separation_vs_hit"`
}

// ProbeHistogram is the receiver model's output for one divergence
// finding: the predicted prime/probe timing distributions an attacker
// measuring the divergent sets would collect, per secret direction.
type ProbeHistogram struct {
	// ProbeIters, PrimeTraversals and VictimRuns state the modelled
	// protocol (the attack.Calibrate knobs the predictions assume).
	ProbeIters      int `json:"probe_iters"`
	PrimeTraversals int `json:"prime_traversals"`
	VictimRuns      int `json:"victim_runs"`
	// ProbedSets is the receiver's set list — the finding's divergent
	// sets. ReceiverWays × len(ProbedSets) = ReceiverRegions regions
	// are traversed per probe iteration.
	ProbedSets      []int `json:"probed_sets"`
	ReceiverWays    int   `json:"receiver_ways"`
	ReceiverRegions int   `json:"receiver_regions"`
	// RegionRefillDelta is the per-traversal cost of one evicted
	// receiver region (cold minus warm delivery of one probe region).
	RegionRefillDelta int `json:"region_refill_delta_cycles"`
	// HitCycles is the predicted probe measurement with every receiver
	// line resident — the state priming establishes.
	HitCycles       int     `json:"predicted_hit_cycles"`
	HitPerTraversal float64 `json:"hit_per_traversal_cycles"`
	// Taken and Fall are the predicted miss distributions after the
	// victim executed that secret direction.
	Taken ProbeBin `json:"taken"`
	Fall  ProbeBin `json:"fallthrough"`
	// DirectionCut is the threshold separating the two directions'
	// probe times; SeparationMargin their slow/fast ratio — the signal
	// an attacker decoding the SECRET (rather than mere execution) has
	// to work with, checked against SeparationFloor exactly as
	// attack.Calibrate checks its hit/miss ratio.
	DirectionCut     float64 `json:"direction_cut"`
	SeparationMargin float64 `json:"separation_margin"`
	SeparationFloor  float64 `json:"separation_floor"`
	// Distinguishable reports whether the directions separate by at
	// least the floor. Note a total-time receiver can be blind to a
	// real divergence: if both directions evict the same number of
	// lines (in different sets), the two miss totals coincide even
	// though the footprints differ.
	Distinguishable bool `json:"distinguishable"`
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// ProbeModel prices the attacker's prime/probe loop over a divergence
// finding's footprints and returns the predicted probe histogram. div
// lists the probed sets; taken and fall are the two directions'
// footprints (uopcache.FootprintResult.Sets maps set → occupied ways).
//
// Model scope: the footprints cover the paths PAST the secret branch.
// When the shared prefix before the branch also occupies probed sets,
// both directions' measured miss times rise by the same amount —
// shifting the per-direction separations but not the direction margin.
// The validation harness's victims keep their shared prefixes clear of
// the divergent sets, so there the predictions are exact.
func ProbeModel(cfg Config, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	if cfg.ProbeIters <= 0 || cfg.PrimeTraversals <= 0 || cfg.VictimRuns <= 0 || len(div) == 0 {
		return nil, fmt.Errorf("staticlint: receiver model disabled (probeIters %d, primeTraversals %d, victimRuns %d, %d probed sets)",
			cfg.ProbeIters, cfg.PrimeTraversals, cfg.VictimRuns, len(div))
	}
	spec := ReceiverSpec(cfg, div)
	tailAddr, err := spec.TailAddr()
	if err != nil {
		return nil, fmt.Errorf("staticlint: receiver routine: %w", err)
	}
	prog, err := spec.LoopProgram(tailAddr)
	if err != nil {
		return nil, fmt.Errorf("staticlint: receiver routine: %w", err)
	}
	ct := cfg.Costs()
	iters := cfg.ProbeIters

	// One probe traversal's fetch ranges, in traversal order: every
	// region of the chain, then the loop tail (SUB/CMP/JCC back to the
	// chain head).
	var trav []uopcache.Range
	for _, set := range spec.Sets {
		for w := 0; w < spec.Ways; w++ {
			addr := spec.RegionAddr(set, w)
			trav = append(trav, uopcache.Range{Start: addr, End: addr + uint64(spec.BodyBytes())})
		}
	}
	tail := prog.MustLabel("tail")
	subi := prog.At(tail)
	cmpi := prog.At(subi.End())
	jcc := prog.At(cmpi.End())
	trav = append(trav, uopcache.Range{Start: tail, End: jcc.End()})

	// Turn the receiver's fetch ranges into replayable segments: the
	// fetch address, the exact trace the frontend would build on a MITE
	// refill, and the cold-minus-warm cost a DSB miss of the segment
	// adds to a timed run. SegmentRanges dedupes (region, entry) traces,
	// so each per-traversal segment is priced once and multiplied by
	// the iteration count rather than fed repeated ranges.
	plan := decode.Macros(cfg.Decode)
	build := func(ranges []uopcache.Range) (segs []probeSeg, warm, uops int, err error) {
		for _, sg := range uopcache.SegmentRanges(cfg.UopCache, prog, ranges) {
			rc := ct.Region(sg.Region, sg.Entry, sg.Insts)
			if !rc.Cacheable {
				return nil, 0, 0, fmt.Errorf("staticlint: probe region %#x uncacheable (%s)", sg.Region, rc.Reason)
			}
			warm += rc.WarmCycles
			uops += rc.Uops
			segs = append(segs, probeSeg{
				addr:  sg.Region + uint64(sg.Entry),
				trace: uopcache.BuildTrace(cfg.UopCache, sg.Region, sg.Entry, plan(sg.Insts)),
				delta: rc.RefillDelta(),
			})
		}
		return segs, warm, uops, nil
	}
	travSegs, travWarm, travUops, err := build(trav)
	if err != nil {
		return nil, err
	}
	regionDelta := 0
	for _, s := range travSegs {
		if s.trace.Region == spec.RegionAddr(spec.Sets[0], 0) {
			regionDelta = s.delta
		}
	}

	// The run's bookends: the entry header (one jump into the chain)
	// and, after the final not-taken loop branch, the HALT.
	entry := prog.MustLabel("entry")
	header := uopcache.Range{Start: entry, End: prog.At(entry).End()}
	halt := uopcache.Range{Start: jcc.End(), End: prog.At(jcc.End()).End()}
	headSegs, headWarm, headUops, err := build([]uopcache.Range{header})
	if err != nil {
		return nil, err
	}
	haltSegs, haltWarm, haltUops, err := build([]uopcache.Range{halt})
	if err != nil {
		return nil, err
	}
	bookWarm := headWarm + haltWarm
	bookUops := headUops + haltUops

	// Hit state: everything resident. The probe chain streams 3 µops
	// per region per cycle — under the backend's drain width — so the
	// run is fetch-bound and pays the fixed probeRunOverhead instead of
	// the drain path's DrainBound lag.
	stream := bookWarm + iters*travWarm
	uops := bookUops + iters*travUops
	hit := stream + probeRunOverhead
	if b := ct.DrainBound(uops) + probeRunOverhead; b > hit {
		hit = b
	}

	h := &ProbeHistogram{
		ProbeIters:        iters,
		PrimeTraversals:   cfg.PrimeTraversals,
		VictimRuns:        cfg.VictimRuns,
		ProbedSets:        append([]int(nil), div...),
		ReceiverWays:      spec.Ways,
		ReceiverRegions:   spec.Regions(),
		RegionRefillDelta: regionDelta,
		HitCycles:         hit,
		HitPerTraversal:   round2(float64(hit) / float64(iters)),
		SeparationFloor:   ProbeSeparationFloor,
	}

	// Miss states. A static eviction count is not enough here: the
	// hotness replacement policy makes the protocol path-dependent. The
	// victim's set-full fill failures wear every surviving receiver
	// line in the set to hotness zero before its own line installs, so
	// the probe's own failed refills then cascade — a refill of the one
	// missing region can displace a not-yet-reaccessed neighbour, whose
	// region misses later in the same traversal, and so on. The model
	// therefore replays the full measurement protocol (prime → hit
	// probe → prime → victim runs → timed probe, the attack.Calibrate
	// round order) against the real replacement state machine in
	// internal/uopcache, and prices each observed probe miss with the
	// segment's refill delta from the shared cost table.
	// resident streams addr's trace (bumping hotness and the stats, as the
	// fetch engine does) into one reused buffer: only the outcome counts.
	var streamed []isa.Uop
	resident := func(cache *uopcache.Cache, addr uint64) bool {
		var ok bool
		streamed, ok = cache.LookupAppend(0, addr, streamed[:0])
		return ok
	}
	runRecv := func(cache *uopcache.Cache, n int) (misses, extra int) {
		touch := func(s probeSeg) {
			if resident(cache, s.addr) {
				return
			}
			misses++
			extra += s.delta
			cache.Fill(0, s.trace)
		}
		for _, s := range headSegs {
			touch(s)
		}
		for i := 0; i < n; i++ {
			for _, s := range travSegs {
				touch(s)
			}
		}
		for _, s := range haltSegs {
			touch(s)
		}
		return misses, extra
	}
	bin := func(fp uopcache.FootprintResult) ProbeBin {
		// The victim's fetch stream over its predicted footprint: each
		// run touches every cacheable region once, in path order, with
		// the trace's real line count (the synthetic trace carries no
		// µops — only the line structure the replacement policy sees).
		var victim []probeSeg
		for _, rf := range fp.Regions {
			if !rf.Cacheable || rf.Ways <= 0 {
				continue
			}
			victim = append(victim, probeSeg{
				addr: rf.Region + uint64(rf.Entry),
				trace: &uopcache.Trace{
					Region:    rf.Region,
					Entry:     rf.Entry,
					Lines:     make([]uopcache.LineUops, rf.Ways),
					Cacheable: true,
				},
			})
		}
		cache := uopcache.New(cfg.UopCache)
		runRecv(cache, cfg.PrimeTraversals) // prime
		runRecv(cache, iters)               // hit probe
		runRecv(cache, cfg.PrimeTraversals) // prime
		for r := 0; r < cfg.VictimRuns; r++ {
			for _, s := range victim {
				if !resident(cache, s.addr) {
					cache.Fill(0, s.trace)
				}
			}
		}
		misses, extra := runRecv(cache, iters) // timed probe
		evicted := 0
		for _, set := range div {
			lines := fp.Sets[set]
			if lines > spec.Ways {
				lines = spec.Ways
			}
			evicted += lines
		}
		miss := hit + extra
		return ProbeBin{
			EvictedLines: evicted,
			ProbeMisses:  misses,
			Cycles:       miss,
			PerTraversal: round2(float64(miss) / float64(iters)),
			Cut:          round2((float64(hit) + float64(miss)) / 2),
			Separation:   round2(float64(miss) / float64(hit)),
		}
	}
	h.Taken = bin(taken)
	h.Fall = bin(fall)

	slow, fast := h.Taken.Cycles, h.Fall.Cycles
	if slow < fast {
		slow, fast = fast, slow
	}
	h.DirectionCut = round2((float64(h.Taken.Cycles) + float64(h.Fall.Cycles)) / 2)
	h.SeparationMargin = round2(float64(slow) / float64(fast))
	h.Distinguishable = h.SeparationMargin >= ProbeSeparationFloor
	return h, nil
}

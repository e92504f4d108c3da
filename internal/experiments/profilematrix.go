package experiments

import (
	"fmt"

	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

func init() {
	register("profilematrix", func(o Options) (Renderable, error) { return ProfileMatrix(o) })
}

// profileMatrixSeeds are the differential victims each profile's row
// aggregates; the full 200-seed corpus holds their siblings to the
// same contract per profile in internal/staticlint/difftest.
var profileMatrixSeeds = []uint64{1, 2, 3, 5, 19}

// NoChannelMark is the cell a profile's row carries where the channel
// in question does not exist on that microarchitecture — a zero-penalty
// decoder has no alignment stall, and the no-DSB control has neither
// switch points nor a probeable cache.
const NoChannelMark = "—"

// ProfileMatrix renders the cross-microarchitecture validation table:
// one row per registered front-end profile with its cache geometry,
// the differential refill contract's aggregate deltas and worst
// relative error, the receiver model's probe separation margin, the
// alignment- and switch-channel asymmetries of the pinned shapes, and
// the measured same-address-space covert-channel bandwidth. The no-DSB
// control profile must show zero refill signal and no channel — it is
// the falsifiability row: a nonzero cell there means some cost is
// attributed to the µop cache that does not come from it.
func ProfileMatrix(o Options) (*Table, error) {
	t := &Table{
		ID:    "profilematrix",
		Title: "Front-end profile matrix: geometry, differential validation, and covert bandwidth per microarchitecture",
		Columns: []string{
			"Profile", "Geometry", "Refill Δ pred/meas", "Worst err",
			"Probe margin", "Align Δ", "Switch Δ", "Channel",
		},
	}
	for _, p := range profile.All() {
		row, err := profileRow(p, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: profilematrix %s: %w", p.Name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func profileRow(p profile.Profile, o Options) ([]string, error) {
	h := difftest.NewHarness(p)

	geom := fmt.Sprintf("%ds×%dw×%du", p.UopCache.Sets, p.UopCache.Ways, p.UopCache.SlotsPerLine)
	if !p.HasDSB() {
		geom += " (DSB off)"
	}

	// Differential refill contract over the pinned seeds: summed
	// predicted and measured deltas (both directions) plus the worst
	// per-direction relative error.
	results, err := h.RunMany(profileMatrixSeeds, o.Workers)
	if err != nil {
		return nil, err
	}
	var pred, meas int
	worst := 0.0
	for _, r := range results {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		pred += r.PredTaken + r.PredFall
		meas += r.MeasTaken + r.MeasFall
		for _, d := range []struct{ p, m int }{{r.PredTaken, r.MeasTaken}, {r.PredFall, r.MeasFall}} {
			if d.m == 0 {
				continue
			}
			off := float64(d.p-d.m) / float64(d.m)
			if off < 0 {
				off = -off
			}
			if off > worst {
				worst = off
			}
		}
	}
	refill := fmt.Sprintf("%dc/%dc", pred, meas)
	worstErr := fmt.Sprintf("%.1f%%", 100*worst)

	// Receiver model: mean predicted probe separation margin across the
	// seeds' divergence findings. No DSB → nothing to probe.
	margin := NoChannelMark
	if p.HasDSB() {
		var sum float64
		n := 0
		for _, r := range results {
			if pr := r.Prediction; pr != nil && pr.Finding.Probe != nil {
				sum += pr.Finding.Probe.SeparationMargin
				n++
			}
		}
		if n > 0 {
			margin = fmt.Sprintf("%.2f×", sum/float64(n))
		}
	}

	// Alignment channel: the pinned ShapeAlign victim's predicted
	// align-stall asymmetry. Zero-penalty decoders have no such stall.
	alignDelta := NoChannelMark
	if p.Decode.JccAlignPenalty > 0 {
		r, err := h.RunShape(1, difftest.ShapeAlign, nil)
		if err != nil {
			return nil, err
		}
		d := r.Prediction.TakenCost.AlignStallCycles - r.Prediction.FallCost.AlignStallCycles
		alignDelta = fmt.Sprintf("%+dc", d)
	}

	// Switch channel: the pinned ShapeSwitch victim's warm switch-point
	// asymmetry priced at the full bubble. Without a DSB the machine
	// never transitions, so there is no switch channel.
	switchDelta := NoChannelMark
	if p.HasDSB() {
		r, err := h.RunShape(1, difftest.ShapeSwitch, nil)
		if err != nil {
			return nil, err
		}
		bubble := 1 + h.Config().Costs().SwitchPenalty()
		d := (r.Prediction.TakenCost.WarmSwitchPoints - r.Prediction.FallCost.WarmSwitchPoints) * bubble
		switchDelta = fmt.Sprintf("%+dc", d)
	}

	// Covert channel: one same-address-space transmission on a core
	// assembled for the profile, the chain geometry stretched across
	// the profile's set count. The no-DSB control must fail calibration
	// — there is no conflict signal to calibrate a threshold on.
	bandwidth, err := profileBandwidth(p)
	if err != nil {
		return nil, err
	}

	return []string{p.Name, geom, refill, worstErr, margin, alignDelta, switchDelta, bandwidth}, nil
}

// profileBandwidth transmits a short payload over the §V-A channel on
// the profile's core and renders bandwidth and error rate; a profile
// whose cache cannot carry the channel renders the no-channel mark.
func profileBandwidth(p profile.Profile) (string, error) {
	cfg := channel.DefaultConfig()
	cfg.Geometry.CacheSets = p.UopCache.Sets
	// The paper's operating point leaves two ways free on Skylake's
	// 8-way sets; scale the same margin to the profile's associativity
	// so sender and receiver together always over-commit the set.
	cfg.Geometry.NWays = p.UopCache.Ways - 2
	ch, err := channel.NewSameAddressSpace(cpu.New(cpu.FromProfile(p)), cfg)
	if err != nil {
		if !p.HasDSB() {
			return NoChannelMark, nil
		}
		return "", err
	}
	if !p.HasDSB() {
		return "", fmt.Errorf("no-DSB profile calibrated a µop-cache channel threshold")
	}
	payload := []byte("uop")
	got, res, err := ch.Transmit(payload)
	if err != nil {
		return "", err
	}
	if string(got) != string(payload) {
		return "", fmt.Errorf("channel corrupted payload: %q != %q", got, payload)
	}
	return fmt.Sprintf("%.0f Kbit/s @ %.0f%% err", res.BandwidthKbps(), 100*res.ErrorRate()), nil
}

package experiments

import (
	"errors"

	"deaduops/internal/attack"
	"deaduops/internal/channel"
	"deaduops/internal/cpu"
)

func init() {
	register("fig9", func(o Options) (Renderable, error) { return Fig9Tuning(o) })
}

// Fig9Tuning reproduces Fig 9: the same-address-space channel's error
// rate and bandwidth as the tiger/zebra geometry (sets, ways) and the
// probe sample count vary, one parameter at a time around the paper's
// operating point (8 sets, 6 ways, 5 samples).
func Fig9Tuning(o Options) (*Figure, error) {
	o = o.withDefaults(0, 0, 0)
	payload := testPayload(32, o.Seed)

	fig := &Figure{
		ID:    "fig9",
		Title: "Set/way occupancy and sample count vs accuracy and bandwidth",
		XAxis: "parameter value (sets | ways | samples)",
		YAxis: "error rate / bandwidth (Kbit/s)",
	}

	base := channel.DefaultConfig()

	// One flat point list across the three one-at-a-time parameter
	// sweeps, so the pool sees all 15 configurations at once.
	type fig9Point struct {
		group string
		x     float64
		cfg   channel.Config
	}
	var points []fig9Point
	for _, nsets := range []int{1, 2, 4, 8, 16} {
		cfg := base
		cfg.Geometry = attack.Geometry{NSets: nsets, NWays: base.Geometry.NWays}
		points = append(points, fig9Point{"sets", float64(nsets), cfg})
	}
	for nways := 4; nways <= 8; nways++ {
		cfg := base
		cfg.Geometry = attack.Geometry{NSets: base.Geometry.NSets, NWays: nways}
		points = append(points, fig9Point{"ways", float64(nways), cfg})
	}
	for _, samples := range []int64{1, 2, 5, 10, 20} {
		cfg := base
		cfg.ProbeIters = samples
		points = append(points, fig9Point{"samples", float64(samples), cfg})
	}

	type fig9Val struct{ errRate, kbps float64 }
	vals, err := sweep(o, len(points), func(a *cpu.Arena, i int) (fig9Val, error) {
		c := cpu.NewWith(cpu.Intel(), a)
		ch, err := channel.NewSameAddressSpace(c, points[i].cfg)
		if errors.Is(err, attack.ErrNoSignal) {
			// A configuration with no measurable signal transmits
			// garbage: report 50% error at zero effective bandwidth
			// rather than failing the sweep.
			return fig9Val{errRate: 0.5}, nil
		}
		if err != nil {
			return fig9Val{}, err
		}
		_, res, err := ch.Transmit(payload)
		if err != nil {
			return fig9Val{}, err
		}
		return fig9Val{errRate: res.ErrorRate(), kbps: res.BandwidthKbps()}, nil
	})
	if err != nil {
		return nil, err
	}

	for _, group := range []string{"sets", "ways", "samples"} {
		var xs, errY, bwY []float64
		for i, p := range points {
			if p.group != group {
				continue
			}
			xs = append(xs, p.x)
			errY = append(errY, vals[i].errRate)
			bwY = append(bwY, vals[i].kbps)
		}
		fig.Series = append(fig.Series,
			Series{Label: "error-vs-" + group, X: xs, Y: errY},
			Series{Label: "bandwidth-vs-" + group, X: xs, Y: bwY})
	}

	return fig, nil
}

// testPayload generates a deterministic pseudorandom payload from seed
// (splitmix64; no time/rand dependencies so runs are reproducible).
func testPayload(n int, seed uint64) []byte {
	out := make([]byte, n)
	x := seed
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = byte(z ^ (z >> 31))
	}
	return out
}

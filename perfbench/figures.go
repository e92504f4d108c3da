package main

// figures regenerates every registered figure and table of the paper's
// evaluation through experiments.Registry, the way cmd/characterize
// does. It is the paper's own deliverable, and building fresh cores for
// every sweep point dominates it.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"deaduops/internal/experiments"
)

type figures struct {
	opts experiments.Options
	ids  []string
	// want maps each id to the digest every pass must render. For the
	// default seed it holds the stored digests; for any other seed the
	// first pass fills it.
	want   map[string]string
	pinned bool
}

func setupFigures(o *options) (workload, error) {
	f := &figures{
		// Iterations, Warmup and Samples are those of the root
		// package's go test -bench figures (benchOpts in bench_test.go);
		// only the seed varies. fig9 and table1, which ignore them, take
		// most of a pass.
		opts: experiments.Options{Iterations: 30, Warmup: 10, Samples: 4, Seed: mix(o.seed), Workers: o.par},
		ids:  experiments.IDs(),
		want: map[string]string{},
	}
	if o.seed == o.want.Seed {
		for id, d := range o.want.Figures {
			f.want[id] = d
		}
		f.pinned = true
	}
	return f, nil
}

// render regenerates one experiment and returns its output's digest.
func render(id string, opts experiments.Options) (string, error) {
	fn, ok := experiments.Registry[id]
	if !ok {
		return "", fmt.Errorf("experiment %q not registered", id)
	}
	r, err := fn(opts)
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	sum := sha256.Sum256([]byte(r.Render()))
	return hex.EncodeToString(sum[:]), nil
}

func (f *figures) check(id, got string) error {
	want, ok := f.want[id]
	if !ok {
		f.want[id] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("figures %s: rendered digest %s, want %s", id, got, want)
	}
	return nil
}

// round regenerates the whole suite. The operation is the pass: the
// experiments differ in cost by three orders of magnitude, so
// percentiles over them would only say which experiment sits at the
// rank. Each experiment's time is the per-layer experiments.<id>_s.
func (f *figures) round(b *bench, r int) time.Duration {
	var errs []error
	start := time.Now()
	for _, id := range f.ids {
		sp := b.tr.begin("experiments."+id, -1)
		d, err := render(id, f.opts)
		b.tr.end(sp)
		if err == nil {
			err = f.check(id, d)
		}
		errs = append(errs, err)
		if r == 0 {
			b.exact["figures."+id] = d
		}
	}
	elapsed := time.Since(start)
	b.op(elapsed, errors.Join(errs...))
	return elapsed
}

// finish reruns every experiment sequentially for a seed without stored
// digests: the pool must not change a single rendered byte.
func (f *figures) finish(b *bench) {
	if f.pinned {
		return
	}
	seq := f.opts
	seq.Workers = 1
	for _, id := range f.ids {
		d, err := render(id, seq)
		if err == nil {
			err = f.check(id, d)
		}
		if err != nil {
			err = fmt.Errorf("sequential rerun: %w", err)
		}
		b.oracle(err)
	}
}

func (f *figures) layers(b *bench, m map[string]float64) {
	// One call per id per pass, so the time per call is the time per pass.
	self, n := b.tr.selfTimes()
	for _, id := range f.ids {
		if n["experiments."+id] > 0 {
			m["experiments."+id+"_s"] = self["experiments."+id] / float64(n["experiments."+id])
		}
	}
}

func (f *figures) close() {}

// Command uopcache runs any of the paper's experiments by id and
// prints its data as text or CSV.
//
// Usage:
//
//	uopcache -list
//	uopcache -exp fig3a [-iters 200] [-warmup 50] [-samples 8] [-csv]
//	uopcache -exp fig3a,fig3b,fig4   # several, in the given order
//	uopcache -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deaduops/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uopcache", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "comma-separated experiment ids (see -list), or \"all\"")
		list    = fs.Bool("list", false, "list experiment ids")
		iters   = fs.Int("iters", 0, "measurement loop iterations (0 = default)")
		warmup  = fs.Int("warmup", 0, "warm-up iterations (0 = default)")
		samples = fs.Int("samples", 0, "per-point samples / rounds (0 = default)")
		seed    = fs.Uint64("seed", 0, "payload PRNG seed (0 = default)")
		workers = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		csv     = fs.Bool("csv", false, "CSV output where supported")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: uopcache -exp <id>[,<id>…] | -list")
		return 2
	}

	opts := experiments.Options{
		Iterations: *iters,
		Warmup:     *warmup,
		Samples:    *samples,
		Seed:       *seed,
		Workers:    *workers,
	}

	// Every id is checked before any experiment runs, so a typo late in
	// the list costs nothing.
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for _, id := range ids {
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
		}
	}
	for _, id := range ids {
		out, err := experiments.Registry[id](opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", id, err)
			return 1
		}
		if *csv {
			if fig, isFig := out.(*experiments.Figure); isFig {
				fmt.Fprint(stdout, fig.CSV())
				continue
			}
		}
		fmt.Fprintln(stdout, out.Render())
	}
	return 0
}

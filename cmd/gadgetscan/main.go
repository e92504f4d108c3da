// Command gadgetscan runs the §VI-A gadget census over built-in guest
// programs: the victims shipped with this repository and a population
// of randomly generated programs. It reports each finding and the
// per-class counts — the in-repo analog of the paper's LGTM census of
// torvalds/linux (100 µop-cache gadgets vs 19 Spectre-v1 gadgets).
package main

import (
	"flag"
	"fmt"
	"os"

	"deaduops/internal/asm"
	"deaduops/internal/ref"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

func main() {
	var (
		seeds   = flag.Int("random", 20, "number of random programs to scan")
		verbose = flag.Bool("v", false, "print every finding")
	)
	flag.Parse()

	lay := victim.DefaultLayout()
	cfg := staticlint.DefaultConfig()
	total := map[staticlint.GadgetKind]int{}

	scan := func(name string, p *asm.Program) {
		found := staticlint.ScanGadgets(p, cfg)
		c := map[staticlint.GadgetKind]int{}
		for _, h := range found {
			c[h.Kind]++
			total[h.Kind]++
		}
		fmt.Printf("%-28s µop-cache %d  spectre-v1 %d\n",
			name, c[staticlint.GadgetUopCache], c[staticlint.GadgetSpectreV1])
		if *verbose {
			for _, h := range found {
				fmt.Printf("    %s gadget: guard %#x → load %#x → sink %#x\n",
					h.Kind, h.Guard, h.Load, h.Sink)
			}
		}
	}

	// The shipped victims (the same corpus cmd/uoplint gates).
	for _, fx := range victim.Fixtures(lay) {
		scan("victim: "+fx.Name, fx.Prog)
	}

	// Random program population.
	gen := ref.DefaultGenConfig()
	for s := 1; s <= *seeds; s++ {
		p, err := ref.Generate(uint64(s), gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scan(fmt.Sprintf("random seed %d", s), p)
	}

	fmt.Printf("\ntotal: µop-cache %d, spectre-v1 %d (paper's linux census: 100 vs 19)\n",
		total[staticlint.GadgetUopCache], total[staticlint.GadgetSpectreV1])
}

// Command uoptrace runs a preset workload with the pipeline tracer
// attached, printing each retired macro-op with its front-end delivery
// source (micro-op cache / legacy decode / LSD) and every squash — the
// rhythm a micro-op cache attack rides on, made visible.
//
// Usage:
//
//	uoptrace -preset warmup            # cold vs warm loop
//	uoptrace -preset spectre           # a transient window with squashes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/trace"
	"deaduops/internal/victim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uoptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "warmup", "workload: warmup | spectre")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *preset {
	case "warmup":
		traceWarmup(stdout)
	case "spectre":
		traceSpectre(stdout)
	default:
		fmt.Fprintf(stderr, "unknown preset %q\n", *preset)
		return 2
	}
	return 0
}

// traceWarmup shows the same loop iteration decoding through MITE cold
// and streaming from the DSB warm.
func traceWarmup(w io.Writer) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Label("loop")
	b.Nop(4)
	b.Nop(4)
	b.Addi(isa.R1, 1)
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	prog := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	tr := trace.Attach(c, w)
	defer tr.Detach()

	fmt.Fprintln(w, "# cold run (3 iterations): legacy decode fills the µop cache")
	c.SetReg(0, isa.R14, 3)
	c.Run(0, prog.Entry, 100000)
	fmt.Fprintln(w, "\n# warm run (3 iterations): same code streams from the µop cache")
	c.SetReg(0, isa.R14, 3)
	c.Run(0, prog.Entry, 100000)
}

// traceSpectre shows a mistrained bounds check opening a transient
// window: the squash arrives ~200 cycles after the flushed guard load.
func traceSpectre(w io.Writer) {
	lay := victim.DefaultLayout()
	b := asm.New(0x20000)
	victim.BoundsCheckVictim(b, lay)
	b.Org(0x30000)
	b.Label("entry")
	b.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	b.Call("victim_function")
	b.Halt()
	prog := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.Mem().Write(lay.ArraySizeAddr, 8, lay.ArrayLen)

	// Train in-bounds.
	for i := 0; i < 4; i++ {
		c.SetReg(0, isa.R1, int64(i))
		c.SetReg(0, isa.R2, 0)
		c.Run(0, prog.Entry, 100000)
	}

	tr := trace.Attach(c, w)
	defer tr.Detach()
	fmt.Fprintln(w, "# malicious call: watch the late squash ending the transient window")
	c.SetReg(0, isa.R1, lay.ArrayLen+512)
	c.SetReg(0, isa.R2, 0)
	c.Run(0, prog.Entry, 100000)
	fmt.Fprintf(w, "\n# squashes observed: %d\n", tr.Squashes)
}

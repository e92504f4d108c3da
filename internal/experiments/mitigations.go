package experiments

import (
	"fmt"

	"deaduops/internal/asm"

	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
	"deaduops/internal/transient"
)

func init() {
	register("mitigations", func(o Options) (Renderable, error) { return MitigationMatrix(o) })
}

// MitigationMatrix evaluates the §VIII candidate defenses: for each
// mitigation it reports whether the user/kernel channel still
// calibrates, the channel's residual bandwidth, and the mitigation's
// performance cost on a benign syscall-heavy workload.
func MitigationMatrix(o Options) (*Table, error) {
	o = o.withDefaults(0, 0, 0)
	payload := testPayload(8, o.Seed)

	t := &Table{
		ID:    "mitigations",
		Title: "§VIII mitigations vs the µop cache channels",
		Columns: []string{
			"Mitigation", "User/Kernel Channel", "Bit Errors", "Bandwidth (Kbit/s)",
			"Variant-1 (user-only)", "Benign Syscall Overhead",
		},
	}

	baseline, err := benignSyscallCycles(cpu.MitigationNone, nil)
	if err != nil {
		return nil, err
	}

	mitigations := []cpu.Mitigation{
		cpu.MitigationNone,
		cpu.MitigationFlushOnPrivilegeSwitch,
		cpu.MitigationPrivilegePartition,
	}
	rows, err := sweep(o, len(mitigations), func(a *cpu.Arena, i int) ([]string, error) {
		m := mitigations[i]
		cfg := cpu.Intel()
		cfg.Mitigation = m
		c := cpu.NewWith(cfg, a)

		status, errors, bw := "open", "-", "-"
		ch, err := channel.NewUserKernel(c, channel.DefaultConfig())
		if err != nil {
			status = "CLOSED"
		} else {
			ch.WriteSecret(payload)
			got, res, err := ch.Leak(len(payload))
			if err != nil {
				return nil, err
			}
			e := bitErrors(payload, got)
			errors = fmt.Sprintf("%d/%d", e, res.Bits)
			bw = fmt.Sprintf("%.1f", res.BandwidthKbps())
			if e > res.Bits/4 {
				status = "CLOSED (garbage)"
			}
		}

		// The paper's caveat: neither domain-crossing mitigation stops
		// the variant-1 attack, whose prime, transient transmit, and
		// probe all happen in user space.
		v1status := "open"
		{
			vcfg := cpu.Intel()
			vcfg.Mitigation = m
			vc := cpu.NewWith(vcfg, a)
			v, err := transient.NewVariant1(vc)
			if err != nil {
				v1status = "CLOSED"
			} else {
				v.WriteSecret([]byte{0xA5})
				got, _, err := v.Leak(1)
				if err != nil || got[0] != 0xA5 {
					v1status = "CLOSED"
				}
			}
		}

		cycles, err := benignSyscallCycles(m, a)
		if err != nil {
			return nil, err
		}
		overhead := fmt.Sprintf("%+.1f%%", 100*(float64(cycles)/float64(baseline)-1))

		return []string{m.String(), status, errors, bw, v1status, overhead}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// benignSyscallCycles measures a syscall-heavy benign workload: a hot
// user loop making kernel calls that run a small hot kernel routine —
// the workload most hurt by flushing the micro-op cache at crossings.
func benignSyscallCycles(m cpu.Mitigation, a *cpu.Arena) (uint64, error) {
	cfg := cpu.Intel()
	cfg.Mitigation = m
	c := cpu.NewWith(cfg, a)

	prog, entry, err := buildBenignSyscallWorkload(cfg.KernelEntry)
	if err != nil {
		return 0, err
	}
	c.LoadProgram(prog)
	res, err := steadyState(c, entry, Options{Warmup: 50, Iterations: 200}, "benign")
	if err != nil {
		return 0, err
	}
	if res.Counters.Get(perfctr.Instructions) == 0 {
		return 0, fmt.Errorf("benign run retired nothing")
	}
	return res.Cycles, nil
}

// buildBenignSyscallWorkload assembles: user loop of hot code + one
// syscall per iteration; kernel routine with a short hot body.
func buildBenignSyscallWorkload(kentry uint64) (prog *asm.Program, entry uint64, err error) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Label("uloop")
	for i := 0; i < 4; i++ {
		b.NopRegion(32, 4)
	}
	b.Syscall()
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "uloop")
	b.Halt()
	user, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	kb := asm.New(kentry)
	for i := 0; i < 4; i++ {
		kb.NopRegion(32, 4)
	}
	kb.Sysret()
	kern, err := kb.Build()
	if err != nil {
		return nil, 0, err
	}
	merged, err := asm.Merge(user, kern)
	if err != nil {
		return nil, 0, err
	}
	return merged, user.Entry, nil
}

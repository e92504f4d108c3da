package channel

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

// UserKernel is the §V-A cross-privilege channel: the spy primes its
// user-space tiger, makes system calls into a kernel routine that
// performs a secret-dependent call to an internal kernel routine (the
// kernel-side tiger), and then times its own tiger. The micro-op cache
// is not flushed at the privilege crossing, so the kernel's execution
// footprint survives into the spy's probe.
type UserKernel struct {
	cfg Config
	c   *cpu.CPU

	recv *attack.Routine
	th   attack.Threshold

	syscallEntry uint64
	// SecretBase is the guest address of the kernel's secret bit
	// array; the host (acting as the kernel owner) writes it there.
	SecretBase uint64
}

const (
	ukKernelTiger = 0x440000 // kernel-side tiger chain base
	ukSecretBase  = 0x300000 // secret byte array in kernel memory
	ukSyscallLoop = 0xE0000  // spy's syscall trampoline loop
)

// NewUserKernel builds the cross-privilege channel on c. The kernel
// image contains the victim routine at the architectural SYSCALL entry;
// its secret-dependent internal call targets a kernel tiger that
// conflicts with the spy's user-space tiger.
func NewUserKernel(c *cpu.CPU, cfg Config) (*UserKernel, error) {
	recv, err := attack.Build(attack.Tiger(recvBase, cfg.Geometry, "recv"))
	if err != nil {
		return nil, err
	}

	kern, err := buildKernelImage(c.Config().KernelEntry, cfg.Geometry)
	if err != nil {
		return nil, err
	}

	// The spy's syscall loop: R14 syscalls, bit index in R1 (consumed
	// by the kernel routine).
	sb := asm.New(ukSyscallLoop)
	sb.Label("entry")
	sb.Label("sloop")
	sb.Syscall()
	sb.Subi(isa.R14, 1)
	sb.Cmpi(isa.R14, 0)
	sb.Jcc(isa.NE, "sloop")
	sb.Halt()
	syscalls, err := sb.Build()
	if err != nil {
		return nil, err
	}

	merged, err := asm.Merge(recv.Prog, syscalls, kern)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)

	ch := &UserKernel{
		cfg:          cfg,
		c:            c,
		recv:         recv,
		syscallEntry: syscalls.Entry,
		SecretBase:   ukSecretBase,
	}

	// Calibrate with known secret bits: a zero bit leaves the spy's
	// tiger intact (hit), a one bit runs the kernel tiger (miss).
	rounds, err := attack.MeasurePairs(0, cfg.CalibrationRounds, cfg.ProbeIters, func() (uint64, error) {
		ch.WriteSecret([]byte{0x00})
		return ch.leakBit(0)
	}, func() (uint64, error) {
		ch.WriteSecret([]byte{0xFF})
		return ch.leakBit(0)
	})
	if err != nil {
		return nil, err
	}
	// The syscall trampoline adds constant overhead to both sides, so
	// the ratio floor does not transfer; accept any positive separation
	// but keep the per-round spread stats.
	ch.th = rounds.Stats()
	if ch.th.MissMean <= ch.th.HitMean {
		return nil, fmt.Errorf("channel: no user/kernel timing signal (%s)", ch.th.Spread())
	}
	return ch, nil
}

// buildKernelImage assembles the kernel routine and its internal tiger.
// The routine reads one bit of the secret array (index in R1) and, if
// set, calls the internal routine before returning to user mode.
func buildKernelImage(kentry uint64, g attack.Geometry) (*asm.Program, error) {
	kb := asm.New(kentry)
	kb.Label("kentry")
	// R2 = secret[R1>>3], R3 = (R2 >> (R1&7)) & 1
	kb.Mov(isa.R2, isa.R1)
	kb.Shri(isa.R2, 3)
	kb.Loadb(isa.R3, isa.R2, ukSecretBase)
	kb.Mov(isa.R4, isa.R1)
	kb.Andi(isa.R4, 7)
	kb.Shr(isa.R3, isa.R4)
	kb.Andi(isa.R3, 1)
	kb.Cmpi(isa.R3, 0)
	spec := attack.Tiger(ukKernelTiger, g, "ktiger")
	kb.Jcc(isa.EQ, "kskip")
	kb.Call(spec.EntryLabel())
	kb.Label("kskip")
	kb.Sysret()

	// The internal kernel routine: a tiger chain traversed once per
	// call, conflicting with the spy's user tiger.
	if err := spec.Emit(kb, "ktiger_done"); err != nil {
		return nil, err
	}
	kb.Label("ktiger_done")
	kb.Ret()
	return kb.Build()
}

// WriteSecret places the secret bytes in kernel memory. In the threat
// model this is the victim kernel's own data; the host stands in for
// the kernel here.
func (ch *UserKernel) WriteSecret(secret []byte) {
	ch.c.Mem().WriteBytes(ch.SecretBase, secret)
}

// leakBit primes, triggers SendIters syscalls for the given secret bit
// index, and returns the probe time.
func (ch *UserKernel) leakBit(bitIndex int64) (uint64, error) {
	if _, err := ch.recv.Run(ch.c, 0, ch.cfg.PrimeIters); err != nil {
		return 0, err
	}
	ch.c.SetReg(0, isa.R1, bitIndex)
	ch.c.SetReg(0, isa.R14, ch.cfg.SendIters)
	if res := ch.c.Run(0, ch.syscallEntry, 20_000_000); res.TimedOut {
		return 0, fmt.Errorf("channel: syscall loop timed out")
	}
	return ch.recv.Run(ch.c, 0, ch.cfg.ProbeIters)
}

// Threshold exposes the calibrated decision threshold.
func (ch *UserKernel) Threshold() attack.Threshold { return ch.th }

// LeakBit recovers one bit of the kernel secret across the privilege
// boundary.
func (ch *UserKernel) LeakBit(bitIndex int64) (bool, error) {
	cycles, err := ch.leakBit(bitIndex)
	if err != nil {
		return false, err
	}
	return ch.th.Miss(cycles), nil
}

// Leak recovers n bytes of the kernel secret and returns them with
// channel statistics. The caller compares against the planted secret
// for the error rate.
func (ch *UserKernel) Leak(nBytes int) ([]byte, Result, error) {
	out := make([]byte, nBytes)
	var res Result
	start := ch.c.Cycle()
	for i := 0; i < nBytes; i++ {
		for k := 7; k >= 0; k-- {
			idx := int64(i*8 + k)
			bit, err := ch.LeakBit(idx)
			if err != nil {
				return nil, res, err
			}
			if bit {
				out[i] |= 1 << k
			}
			res.Bits++
		}
	}
	res.Cycles = ch.c.Cycle() - start
	return out, res, nil
}

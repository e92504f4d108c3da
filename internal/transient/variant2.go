package transient

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// Variant-2 layout bases.
const (
	v2GadgetCode = 0x30000
	v2EraserBase = 0x40000
	v2Fun1Base   = 0x80000 // transmitter target for secret = 1 (probed sets)
	v2Fun0Base   = 0xC0000 // transmitter target for secret = 0 (disjoint sets)
)

// Variant2 is the LFENCE-bypassing attack: the victim's transmitter is
// an indirect call through a secret-indexed function table, guarded by
// an authorization check and (optionally) a fence. Legitimate
// authorized executions encode the secret in the indirect branch
// predictor. The attacker then triggers a misspeculated call: fetch
// follows the predicted — secret-dependent — target and fills the
// micro-op cache before the LFENCE ever lets the call execute. Only a
// fetch-serializing CPUID closes the channel (Fig 10).
type Variant2 struct {
	c     *cpu.CPU
	lay   victim.Layout
	fence victim.Fence

	th          attack.Threshold
	attackEntry uint64
	trainEntry  uint64
	probeEntry  uint64
	resetEntry  uint64

	// AttackReps tunes the per-bit protocol (at most two misspeculated
	// calls fit before the direction predictor flips); TrainRounds is
	// the number of legitimate authorized calls encoding the secret.
	AttackReps  int
	TrainRounds int
}

// NewVariant2 assembles the victim (with the given fence), the two
// transmitter targets, and the attacker harness. It does NOT calibrate:
// use Calibrate (which fails for the CPUID fence — that is Fig 10's
// point) or SignalStrength.
func NewVariant2(c *cpu.CPU, fence victim.Fence) (*Variant2, error) {
	lay := victim.DefaultLayout()
	g := transientGeometry()
	fun1 := attack.FastTiger(v2Fun1Base, g, "v2fun1")
	fun0 := attack.Zebra(v2Fun0Base, g, "v2fun0")

	ab := asm.New(victimCode)
	victim.IndirectCallVictim(ab, lay, fence)

	ab.Org(v2GadgetCode)
	// Attack entry: flush the authorization token so the check's
	// compare+branch resolves late, then call the victim with an
	// unauthorized id.
	ab.Label("v2_attack")
	ab.Clflush(isa.R2, int64(lay.AuthAddr))
	ab.Call("victim2")
	ab.Halt()
	// Training entry: a legitimate authorized call (R1 holds the
	// token); the transmitter executes architecturally and trains the
	// indirect predictor with the secret-selected target.
	orgToSet(ab, 28)
	ab.Label("v2_train")
	ab.Call("victim2")
	ab.Halt()
	// Probe entry: call the secret=1 target once and time it.
	orgToSet(ab, 30)
	ab.Label("v2_probe")
	ab.Call(fun1.EntryLabel())
	ab.Halt()
	// Reset entry: an iTLB flush (as a munmap-style syscall would
	// cause) — by inclusion it empties the whole micro-op cache, so
	// the next transient window installs its footprint into invalid
	// ways with no eviction fight.
	orgToSet(ab, 31)
	ab.Label("v2_reset")
	ab.ItlbFlush()
	ab.Halt()

	// Transmitter targets: each traverses its chain once and returns.
	if err := fun1.Emit(ab, "fun1_ret"); err != nil {
		return nil, err
	}
	orgToSet(ab, 24)
	ab.Label("fun1_ret")
	ab.Ret()
	if err := fun0.Emit(ab, "fun0_ret"); err != nil {
		return nil, err
	}
	orgToSet(ab, 26)
	ab.Label("fun0_ret")
	ab.Ret()
	prog, err := ab.Build()
	if err != nil {
		return nil, err
	}

	c.LoadProgram(prog)

	v := &Variant2{
		c: c, lay: lay, fence: fence,
		attackEntry: prog.MustLabel("v2_attack"),
		trainEntry:  prog.MustLabel("v2_train"),
		probeEntry:  prog.MustLabel("v2_probe"),
		resetEntry:  prog.MustLabel("v2_reset"),
		AttackReps:  1,
		TrainRounds: 6,
	}
	// Authorization token and function table.
	c.Mem().Write(lay.AuthAddr, 8, victim.AuthToken)
	c.Mem().Write(lay.FunTable, 8, int64(prog.MustLabel(fun0.EntryLabel())))
	c.Mem().Write(lay.FunTable+8, 8, int64(prog.MustLabel(fun1.EntryLabel())))
	return v, nil
}

// WriteSecret plants the victim's one-bit secret (0 or 1).
func (v *Variant2) WriteSecret(bit int) {
	v.c.Mem().Write(v.lay.Secret2Addr, 1, int64(bit&1))
}

// train performs legitimate authorized victim calls, encoding the
// current secret in the indirect branch predictor and training the
// authorization check toward the authorized path. Training goes through
// the same code path as the attack (the classic in-place mistraining of
// Spectre-v1), so the gshare history context of the authorization
// branch matches between training and attack.
func (v *Variant2) train(rounds int) error {
	for i := 0; i < rounds; i++ {
		v.c.SetReg(0, isa.R1, victim.AuthToken)
		v.c.SetReg(0, isa.R2, 0)
		if res := v.c.Run(0, v.attackEntry, maxRun); res.TimedOut {
			return fmt.Errorf("transient: v2 training timed out")
		}
	}
	return nil
}

// probe times one traversal of the secret=1 target chain.
func (v *Variant2) probe() (uint64, error) {
	res := v.c.Run(0, v.probeEntry, maxRun)
	if res.TimedOut {
		return 0, fmt.Errorf("transient: v2 probe timed out")
	}
	return res.Cycles, nil
}

// LeakRaw runs the full per-bit protocol for the currently planted
// secret and returns the probe time. Training — the victim's own
// legitimate authorized activity — happens entirely before the reset,
// so nothing between reset and probe executes the transmitter
// architecturally: any fun1 footprint at probe time came from transient
// fetch alone.
func (v *Variant2) LeakRaw() (uint64, error) {
	if err := v.train(v.TrainRounds); err != nil {
		return 0, err
	}
	if res := v.c.Run(0, v.resetEntry, maxRun); res.TimedOut {
		return 0, fmt.Errorf("transient: v2 reset timed out")
	}
	for r := 0; r < v.AttackReps; r++ {
		v.c.SetReg(0, isa.R1, 0xBAD) // unauthorized id
		v.c.SetReg(0, isa.R2, 0)
		if res := v.c.Run(0, v.attackEntry, maxRun); res.TimedOut {
			return 0, fmt.Errorf("transient: v2 attack timed out")
		}
	}
	return v.probe()
}

// Calibrate measures both secret values and fixes the threshold. It
// returns an error when no signal separates them — the expected outcome
// under the CPUID fence — or when rounds < 1.
func (v *Variant2) Calibrate(rounds int) error {
	r, err := v.measure(rounds)
	if err != nil {
		return err
	}
	v.th = r.Stats()
	if v.th.MissMean <= v.th.HitMean*1.2 {
		return fmt.Errorf("transient: no variant-2 signal under %s fence (one %.0f, zero %.0f)",
			v.fence, v.th.HitMean, v.th.MissMean)
	}
	return nil
}

// SignalStrength returns the mean probe time with the secret planted as
// one and as zero. A separated pair means the channel leaks under this
// fence.
func (v *Variant2) SignalStrength(rounds int) (oneMean, zeroMean float64, err error) {
	r, err := v.measure(rounds)
	if err != nil {
		return 0, 0, err
	}
	th := r.Stats()
	return th.HitMean, th.MissMean, nil
}

// measure runs one warm-up pair and then rounds recorded pairs of the
// per-bit protocol, the secret planted as one (hit: fun1 present) and
// then as zero (miss).
func (v *Variant2) measure(rounds int) (attack.Rounds, error) {
	plant := func(bit int) func() (uint64, error) {
		return func() (uint64, error) {
			v.WriteSecret(bit)
			return v.LeakRaw()
		}
	}
	return attack.MeasurePairs(1, rounds, 1, plant(1), plant(0))
}

// LeakBit recovers the planted secret bit through the fence.
func (v *Variant2) LeakBit() (bool, error) {
	cycles, err := v.LeakRaw()
	if err != nil {
		return false, err
	}
	return v.th.Hit(cycles), nil // fast probe = fun1 present = secret 1
}

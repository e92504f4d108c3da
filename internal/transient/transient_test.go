package transient

import (
	"bytes"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/victim"
)

func TestVariant1LeaksSecret(t *testing.T) {
	c := cpu.New(cpu.Intel())
	v, err := NewVariant1(c)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("Sq!7x")
	v.WriteSecret(secret)
	got, st, err := v.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("leaked %q, want %q", got, secret)
	}
	if st.Bits != len(secret)*8 {
		t.Errorf("bits = %d", st.Bits)
	}
}

func TestVariant1ThresholdSeparation(t *testing.T) {
	c := cpu.New(cpu.Intel())
	v, err := NewVariant1(c)
	if err != nil {
		t.Fatal(err)
	}
	th := v.Threshold()
	if th.MissMean < th.HitMean*1.5 {
		t.Errorf("weak variant-1 separation: one=%.0f zero=%.0f", th.HitMean, th.MissMean)
	}
}

func TestVariant1IsStealthyInLLC(t *testing.T) {
	// The µop-cache variant must generate far less LLC traffic and far
	// more µop cache miss penalty than the classic variant on the same
	// secret (the Table II contrast).
	secret := []byte("AB")

	c1 := cpu.New(cpu.Intel())
	v, err := NewVariant1(c1)
	if err != nil {
		t.Fatal(err)
	}
	v.WriteSecret(secret)
	if _, _, err := v.Leak(len(secret)); err != nil {
		t.Fatal(err)
	}
	_, stUop, err := func() ([]byte, Stats, error) { v.WriteSecret(secret); return v.Leak(len(secret)) }()
	if err != nil {
		t.Fatal(err)
	}

	c2 := cpu.New(cpu.Intel())
	cl, err := NewClassicSpectre(c2)
	if err != nil {
		t.Fatal(err)
	}
	cl.WriteSecret(secret)
	_, stClassic, err := cl.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}

	if stUop.LLCRefs >= stClassic.LLCRefs {
		t.Errorf("µop variant LLC refs %d not below classic %d", stUop.LLCRefs, stClassic.LLCRefs)
	}
	if stUop.UopMissPenalty <= stClassic.UopMissPenalty {
		t.Errorf("µop variant penalty %d not above classic %d", stUop.UopMissPenalty, stClassic.UopMissPenalty)
	}
}

func TestVariant2SignalUnderFences(t *testing.T) {
	// The paper's headline: the signal survives LFENCE, and only the
	// fetch-serializing CPUID closes it (Fig 10).
	cases := []struct {
		fence victim.Fence
		leaks bool
	}{
		{victim.NoFence, true},
		{victim.WithLFENCE, true},
		{victim.WithCPUID, false},
	}
	for _, tc := range cases {
		t.Run(tc.fence.String(), func(t *testing.T) {
			c := cpu.New(cpu.Intel())
			v, err := NewVariant2(c, tc.fence)
			if err != nil {
				t.Fatal(err)
			}
			one, zero, err := v.SignalStrength(4)
			if err != nil {
				t.Fatal(err)
			}
			leaks := zero > one*1.2
			if leaks != tc.leaks {
				t.Errorf("fence %s: leaks=%v (one=%.0f zero=%.0f), want leaks=%v",
					tc.fence, leaks, one, zero, tc.leaks)
			}
		})
	}
}

func TestVariant2LeakBitRoundtrip(t *testing.T) {
	c := cpu.New(cpu.Intel())
	v, err := NewVariant2(c, victim.WithLFENCE)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{1, 0, 1, 1, 0, 0, 1, 0} {
		v.WriteSecret(bit)
		got, err := v.LeakBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != (bit == 1) {
			t.Errorf("secret %d leaked as %v", bit, got)
		}
	}
}

func TestVariant2CPUIDCalibrationFails(t *testing.T) {
	c := cpu.New(cpu.Intel())
	v, err := NewVariant2(c, victim.WithCPUID)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Calibrate(3); err == nil {
		t.Error("calibration succeeded under CPUID — the fence should close the channel")
	}
}

// TestVariant2CalibrateZeroRounds is the regression for a zero-round
// calibration that used to succeed with a NaN cut, after which every
// LeakBit read 0.
func TestVariant2CalibrateZeroRounds(t *testing.T) {
	v, err := NewVariant2(cpu.New(cpu.Intel()), victim.WithLFENCE)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Calibrate(0); err == nil {
		t.Errorf("zero-round calibration accepted (cut %v)", v.th.Cut)
	}
}

func TestClassicSpectreLeaksBytes(t *testing.T) {
	c := cpu.New(cpu.Intel())
	cl, err := NewClassicSpectre(c)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("Sq!7")
	cl.WriteSecret(secret)
	got, st, err := cl.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("leaked %q, want %q", got, secret)
	}
	if st.LLCRefs == 0 || st.LLCMisses == 0 {
		t.Error("classic attack produced no LLC traffic — flush+reload broken")
	}
}

func TestClassicSpectreByteIndependence(t *testing.T) {
	c := cpu.New(cpu.Intel())
	cl, err := NewClassicSpectre(c)
	if err != nil {
		t.Fatal(err)
	}
	cl.WriteSecret([]byte{0x11, 0x22, 0x33})
	// Leak out of order: each byte must be independently recoverable.
	for _, idx := range []int{2, 0, 1} {
		b, err := cl.LeakByte(idx)
		if err != nil {
			t.Fatal(err)
		}
		want := byte(0x11 * (idx + 1))
		if b != want {
			t.Errorf("byte %d = %#x, want %#x", idx, b, want)
		}
	}
}

func TestStatsSeconds(t *testing.T) {
	st := Stats{Cycles: 2_700_000_000}
	if got := st.Seconds(2.7); got != 1.0 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestNaturalGadgetLeaksTagBits(t *testing.T) {
	// §VI-A: the pci_vpd_find_tag-style gadget leaks with no
	// attacker-side disclosure code at all.
	c := cpu.New(cpu.Intel())
	v, err := NewNaturalGadget(c)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte{0x80, 0x01, 0xFF, 0x00, 0x93, 0x7F}
	v.WriteSecret(secret)
	for i, b := range secret {
		got, err := v.LeakTagBit(i)
		if err != nil {
			t.Fatal(err)
		}
		want := b&0x80 != 0
		if got != want {
			t.Errorf("byte %d (%#x): tag bit leaked as %v, want %v", i, b, got, want)
		}
	}
}

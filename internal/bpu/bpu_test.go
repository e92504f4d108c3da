package bpu

import "testing"

func newBPU() *BPU { return New(DefaultConfig()) }

func TestDirectionTrainsTaken(t *testing.T) {
	b := newBPU()
	pc := uint64(0x1000)
	if b.PredictDirection(pc) {
		t.Error("cold prediction taken (counters init weakly not-taken)")
	}
	b.UpdateDirection(pc, true, true)
	b.UpdateDirection(pc, true, false)
	if !b.PredictDirection(pc) {
		t.Error("not taken after two taken updates")
	}
	b.UpdateDirection(pc, false, true)
	b.UpdateDirection(pc, false, false)
	if b.PredictDirection(pc) {
		t.Error("still taken after two not-taken updates")
	}
}

func TestDirectionSaturates(t *testing.T) {
	b := newBPU()
	pc := uint64(0x42)
	for i := 0; i < 10; i++ {
		b.UpdateDirection(pc, true, false)
	}
	// One contrary outcome must not flip a saturated counter.
	b.UpdateDirection(pc, false, true)
	if !b.PredictDirection(pc) {
		t.Error("saturated counter flipped by one outcome")
	}
}

func TestMispredictStats(t *testing.T) {
	b := newBPU()
	b.PredictDirection(0x10)
	b.UpdateDirection(0x10, true, true)
	if b.DirectionLookups != 1 || b.DirectionMisses != 1 {
		t.Errorf("lookups %d misses %d", b.DirectionLookups, b.DirectionMisses)
	}
}

func TestBTB(t *testing.T) {
	b := newBPU()
	if _, ok := b.PredictTarget(0x100); ok {
		t.Error("cold BTB hit")
	}
	b.UpdateTarget(0x100, 0x2000)
	tgt, ok := b.PredictTarget(0x100)
	if !ok || tgt != 0x2000 {
		t.Errorf("BTB = %#x, %v", tgt, ok)
	}
	// A different PC aliasing the same entry replaces it and must not
	// hit for the original until retrained.
	alias := 0x100 + uint64(DefaultConfig().BTBEntries)
	b.UpdateTarget(alias, 0x3000)
	if _, ok := b.PredictTarget(0x100); ok {
		t.Error("stale BTB entry hit after alias replacement")
	}
}

func TestIndirectPredictor(t *testing.T) {
	b := newBPU()
	if _, ok := b.PredictIndirect(0x200); ok {
		t.Error("cold indirect hit")
	}
	b.UpdateIndirect(0x200, 0x8000)
	tgt, ok := b.PredictIndirect(0x200)
	if !ok || tgt != 0x8000 {
		t.Errorf("indirect = %#x, %v", tgt, ok)
	}
	// Retraining moves the prediction — the variant-2 secret encoding.
	b.UpdateIndirect(0x200, 0xC000)
	tgt, _ = b.PredictIndirect(0x200)
	if tgt != 0xC000 {
		t.Errorf("indirect not retrained: %#x", tgt)
	}
}

func TestRSBLIFO(t *testing.T) {
	b := newBPU()
	b.PushRSB(0x1)
	b.PushRSB(0x2)
	b.PushRSB(0x3)
	want := []uint64{0x3, 0x2, 0x1}
	for _, w := range want {
		got, ok := b.PopRSB()
		if !ok || got != w {
			t.Errorf("pop = %#x, %v; want %#x", got, ok, w)
		}
	}
	if _, ok := b.PopRSB(); ok {
		t.Error("pop from empty RSB succeeded")
	}
}

func TestRSBOverflowWraps(t *testing.T) {
	cfg := DefaultConfig()
	b := New(cfg)
	for i := 0; i < cfg.RSBDepth+4; i++ {
		b.PushRSB(uint64(i))
	}
	// The most recent pushes must still be correct.
	for i := cfg.RSBDepth + 3; i >= 4; i-- {
		got, ok := b.PopRSB()
		if !ok || got != uint64(i) {
			t.Fatalf("pop = %d, %v; want %d", got, ok, i)
		}
	}
}

func TestGshareHistoryDisambiguates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryBits = 8
	b := New(cfg)
	pc := uint64(0x500)
	// Train taken under one history.
	b.UpdateDirection(0x1, true, false) // history ...1
	b.UpdateDirection(pc, true, false)
	b.UpdateDirection(pc, true, false)
	// The same branch under a different history hits a different PHT
	// entry, which is still cold.
	b.UpdateDirection(0x1, false, false)
	b.UpdateDirection(0x1, false, false)
	_ = b.PredictDirection(pc) // must not panic; value depends on aliasing
}

func TestReset(t *testing.T) {
	b := newBPU()
	b.UpdateDirection(0x10, true, false)
	b.UpdateDirection(0x10, true, false)
	b.UpdateTarget(0x10, 0x99)
	b.UpdateIndirect(0x20, 0x99)
	b.PushRSB(0x30)
	b.Reset()
	if b.PredictDirection(0x10) {
		t.Error("direction survived reset")
	}
	if _, ok := b.PredictTarget(0x10); ok {
		t.Error("BTB survived reset")
	}
	if _, ok := b.PredictIndirect(0x20); ok {
		t.Error("indirect survived reset")
	}
	if _, ok := b.PopRSB(); ok {
		t.Error("RSB survived reset")
	}
}

// TestNewRejectsNonPowerOfTwoTables guards the mask indexing: a table
// size that is not a positive power of two would alias entries
// silently, so New must refuse it.
func TestNewRejectsNonPowerOfTwoTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"btb-3000", func(c *Config) { c.BTBEntries = 3000 }},
		{"btb-0", func(c *Config) { c.BTBEntries = 0 }},
		{"indirect-1000", func(c *Config) { c.IndirectEntries = 1000 }},
		{"indirect-negative", func(c *Config) { c.IndirectEntries = -4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mod(&cfg)
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		})
	}
	// One-entry tables are a valid (degenerate) power of two.
	cfg := DefaultConfig()
	cfg.BTBEntries, cfg.IndirectEntries = 1, 1
	b := New(cfg)
	b.UpdateTarget(0x1234, 0x5678)
	if tgt, ok := b.PredictTarget(0x1234); !ok || tgt != 0x5678 {
		t.Errorf("1-entry BTB = %#x, %v", tgt, ok)
	}
}

// Package bpu models the branch prediction unit: a gshare direction
// predictor, a branch target buffer, an indirect-target predictor, and a
// return stack buffer. The transient-execution attacks depend on real
// predictor state: Spectre-v1 setup mistrains the direction predictor,
// and the variant-2 attack exploits a secret encoded in the indirect
// predictor by earlier authorized executions.
package bpu

import "fmt"

// Config sizes the predictor structures.
type Config struct {
	// GshareBits is the log2 size of the pattern history table.
	GshareBits uint
	// BTBEntries and IndirectEntries size the target predictors
	// (direct-mapped, power of two).
	BTBEntries      int
	IndirectEntries int
	// RSBDepth is the return stack depth.
	RSBDepth int
	// HistoryBits is the global-history length folded into the gshare
	// index.
	HistoryBits uint
}

// DefaultConfig mirrors a modest Skylake-class predictor. HistoryBits
// is zero — a bimodal, PC-indexed direction predictor — so that
// in-place mistraining (calling the victim through the attack's own
// code path with benign arguments) reliably aliases the attacked
// branch, as the paper's Spectre-style setups assume. Set HistoryBits
// nonzero for a gshare predictor.
func DefaultConfig() Config {
	return Config{
		GshareBits:      14,
		BTBEntries:      4096,
		IndirectEntries: 1024,
		RSBDepth:        16,
		HistoryBits:     0,
	}
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// BPU is one hardware thread's branch prediction unit. On real Intel
// parts some predictor state is competitively shared across SMT threads;
// the model gives each thread its own instance, which is sufficient for
// the paper's single-thread mistraining attacks.
type BPU struct {
	cfg      Config
	pht      []uint8 // 2-bit saturating counters
	history  uint64
	btb      []btbEntry
	indirect []btbEntry
	btbMask  uint64 // len(btb) − 1
	indMask  uint64 // len(indirect) − 1
	rsb      []uint64
	rsbTop   int

	// Stats
	DirectionLookups uint64
	DirectionMisses  uint64
}

// New builds a predictor. It panics unless BTBEntries and
// IndirectEntries are positive powers of two: the target predictors
// index by mask, so any other size would alias silently.
// Configurations are static in this codebase.
func New(cfg Config) *BPU {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(cfg.BTBEntries) || !pow2(cfg.IndirectEntries) {
		panic(fmt.Sprintf("bpu: BTBEntries %d and IndirectEntries %d must be positive powers of two",
			cfg.BTBEntries, cfg.IndirectEntries))
	}
	b := &BPU{
		cfg:      cfg,
		pht:      make([]uint8, 1<<cfg.GshareBits),
		btb:      make([]btbEntry, cfg.BTBEntries),
		indirect: make([]btbEntry, cfg.IndirectEntries),
		btbMask:  uint64(cfg.BTBEntries - 1),
		indMask:  uint64(cfg.IndirectEntries - 1),
		rsb:      make([]uint64, cfg.RSBDepth),
	}
	for i := range b.pht {
		b.pht[i] = 1 // weakly not-taken
	}
	return b
}

func (b *BPU) phtIndex(pc uint64) uint64 {
	h := b.history & ((1 << b.cfg.HistoryBits) - 1)
	return (pc ^ h) & ((1 << b.cfg.GshareBits) - 1)
}

// PredictDirection predicts taken/not-taken for the conditional branch
// at pc.
func (b *BPU) PredictDirection(pc uint64) bool {
	b.DirectionLookups++
	return b.pht[b.phtIndex(pc)] >= 2
}

// UpdateDirection trains the direction predictor with the resolved
// outcome and advances global history.
func (b *BPU) UpdateDirection(pc uint64, taken, mispredicted bool) {
	if mispredicted {
		b.DirectionMisses++
	}
	idx := b.phtIndex(pc)
	c := b.pht[idx]
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	b.pht[idx] = c
	b.history = b.history<<1 | boolBit(taken)
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the direct branch at pc.
func (b *BPU) PredictTarget(pc uint64) (uint64, bool) {
	e := &b.btb[pc&b.btbMask]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateTarget trains the BTB.
func (b *BPU) UpdateTarget(pc, target uint64) {
	b.btb[pc&b.btbMask] = btbEntry{pc: pc, target: target, valid: true}
}

// PredictIndirect consults the indirect-target predictor for the
// indirect branch/call at pc. A hit steers fetch — and hence micro-op
// cache fill — to the predicted target before the branch executes,
// which is the footprint the variant-2 attack observes.
func (b *BPU) PredictIndirect(pc uint64) (uint64, bool) {
	e := &b.indirect[pc&b.indMask]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateIndirect trains the indirect predictor with the resolved target.
func (b *BPU) UpdateIndirect(pc, target uint64) {
	b.indirect[pc&b.indMask] = btbEntry{pc: pc, target: target, valid: true}
}

// PushRSB records a return address at a call.
func (b *BPU) PushRSB(ret uint64) {
	b.rsb[b.rsbTop%len(b.rsb)] = ret
	b.rsbTop++
}

// PopRSB predicts the target of a return.
func (b *BPU) PopRSB() (uint64, bool) {
	if b.rsbTop == 0 {
		return 0, false
	}
	b.rsbTop--
	return b.rsb[b.rsbTop%len(b.rsb)], true
}

// State is a deep snapshot of a predictor's dynamic contents, reusable
// across Save calls (the backing arrays are recycled). Snapshots only
// restore into a BPU built from the same Config.
type State struct {
	pht        []uint8
	history    uint64
	btb        []btbEntry
	indirect   []btbEntry
	rsb        []uint64
	rsbTop     int
	dirLookups uint64
	dirMisses  uint64
}

// Save deep-copies the predictor state into s, reusing s's buffers.
func (b *BPU) Save(s *State) {
	s.pht = append(s.pht[:0], b.pht...)
	s.btb = append(s.btb[:0], b.btb...)
	s.indirect = append(s.indirect[:0], b.indirect...)
	s.rsb = append(s.rsb[:0], b.rsb...)
	s.history = b.history
	s.rsbTop = b.rsbTop
	s.dirLookups = b.DirectionLookups
	s.dirMisses = b.DirectionMisses
}

// Restore overwrites the predictor state from s. It panics if s was
// saved from a predictor with different geometry.
func (b *BPU) Restore(s *State) {
	if len(s.pht) != len(b.pht) || len(s.btb) != len(b.btb) ||
		len(s.indirect) != len(b.indirect) || len(s.rsb) != len(b.rsb) {
		panic("bpu: Restore from a checkpoint with different geometry")
	}
	copy(b.pht, s.pht)
	copy(b.btb, s.btb)
	copy(b.indirect, s.indirect)
	copy(b.rsb, s.rsb)
	b.history = s.history
	b.rsbTop = s.rsbTop
	b.DirectionLookups = s.dirLookups
	b.DirectionMisses = s.dirMisses
}

// Reset clears all predictor state (used between independent trials).
func (b *BPU) Reset() {
	for i := range b.pht {
		b.pht[i] = 1
	}
	for i := range b.btb {
		b.btb[i] = btbEntry{}
	}
	for i := range b.indirect {
		b.indirect[i] = btbEntry{}
	}
	b.history = 0
	b.rsbTop = 0
}

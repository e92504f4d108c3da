// Package codegen generates micro-op cache-shaped code: chains of
// 32-byte regions that land in chosen cache sets and occupy a chosen
// number of ways. It is the code-generation half of the paper's §IV
// framework — the characterization microbenchmarks (Listings 1-3) and
// the tiger/zebra attack functions are all instances of these chains.
package codegen

import (
	"fmt"
	"sort"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// RegionSize is the micro-op cache region granularity in bytes.
const RegionSize = 32

// WayStride is the address distance between two regions that map to
// the same set of a 32-set micro-op cache (32 sets × 32 bytes).
const WayStride = 1024

// TigerNops and TigerNopLen shape one probe/tiger conflict region: two
// LCP-padded 14-byte NOPs plus the chain jump = 3 µops in 30 bytes,
// with six cycles of predecoder stall on every legacy decode. The
// shape is shared by the §IV tiger/zebra functions (internal/attack)
// and the static receiver model (internal/staticlint), so the probe
// the model prices is the probe the attack runs.
const (
	TigerNops   = 2
	TigerNopLen = 14
)

// ProbeChain returns a tiger-shaped chain over an explicit set list:
// ways regions in each listed set, each region TigerNops LCP-padded
// NOPs plus the chain jump. Unlike the evenly striped attack tigers,
// the set list is arbitrary — a receiver probing exactly the divergent
// sets of a victim uses this form.
func ProbeChain(base uint64, sets []int, ways int, label string) *ChainSpec {
	return &ChainSpec{
		Base: base, Sets: sets, Ways: ways,
		NopPerRegion: TigerNops, NopLen: TigerNopLen, LCP: true,
		Label: label,
	}
}

// ChainSpec describes a jump chain across micro-op cache sets and ways.
// The chain visits Ways regions in each listed set (all ways of the
// first set, then the next set, …), each region holding NopPerRegion
// NOPs of NopLen bytes followed by a jump to the next region.
type ChainSpec struct {
	// Base is the address of set 0, way 0; it must be WayStride-aligned
	// so set indices are honest.
	Base uint64
	// Sets lists the target set indices (0..31).
	Sets []int
	// Ways is the number of regions per set.
	Ways int
	// NopPerRegion is the number of NOP macro-ops per region; NopLen
	// their encoded length. LCP marks them with length-changing
	// prefixes, maximizing legacy-decode cost (the tiger trick).
	NopPerRegion int
	NopLen       int
	LCP          bool
	// MsromUops, when nonzero, inserts one microcoded macro-op of that
	// many micro-ops between the NOPs and the jump of every region. An
	// MSROM macro-op consumes a whole micro-op cache line and streams
	// from the sequencer under legacy decode — the other
	// decode-latency amplifier besides LCP.
	MsromUops int
	// JccOffset, when nonzero, places a never-taken conditional jump at
	// exactly that byte offset inside every region: the NOPs pad to
	// JccOffset-3 bytes, then CMP R1,R1 (3 bytes) sets EQ so the
	// following 2-byte JCC NE never fires, then JccTailNops single-byte
	// NOPs, then the chain jump. The offset pins the jump's position
	// relative to the 16-byte predecode window — offset 15 straddles the
	// boundary and pays decode.Config.JccAlignPenalty on every legacy
	// decode, any offset ≤ 13 (or ≥ 16, mod the window) does not — which
	// is the alignment-channel amplifier (the Frontal-attack layout).
	// Requires NopPerRegion*NopLen == JccOffset-3 and no MSROM macro-op.
	JccOffset int
	// JccTailNops pads the region after the conditional jump with that
	// many single-byte NOPs, letting two chains with different JccOffset
	// match each other's µop count and byte length exactly.
	JccTailNops int
	// NumSets is the number of sets in the target cache geometry; it
	// fixes the chain's way stride at NumSets×RegionSize bytes. Zero
	// means the classic 32-set layout (WayStride bytes), so existing
	// chains keep their addresses; a 64-set (Zen 2-like) cache needs
	// NumSets=64 for same-set regions to actually collide.
	NumSets int
	// Label prefixes the generated labels, letting several chains
	// coexist in one builder.
	Label string
}

// numSets returns the set count of the target geometry (32 when unset).
func (s *ChainSpec) numSets() int {
	if s.NumSets > 0 {
		return s.NumSets
	}
	return WayStride / RegionSize
}

// wayStride returns the address distance between two same-set regions.
func (s *ChainSpec) wayStride() uint64 {
	return uint64(s.numSets()) * RegionSize
}

// Validate checks geometric feasibility: the region body plus a 2-byte
// terminating jump must fit in RegionSize bytes.
func (s *ChainSpec) Validate() error {
	if s.NumSets < 0 || (s.NumSets > 0 && s.NumSets&(s.NumSets-1) != 0) {
		return fmt.Errorf("codegen: NumSets %d not a power of two", s.NumSets)
	}
	if s.Base%s.wayStride() != 0 {
		return fmt.Errorf("codegen: base %#x not %d-aligned", s.Base, s.wayStride())
	}
	if s.Ways <= 0 || len(s.Sets) == 0 {
		return fmt.Errorf("codegen: empty chain (%d ways, %d sets)", s.Ways, len(s.Sets))
	}
	for _, set := range s.Sets {
		if set < 0 || set >= s.numSets() {
			return fmt.Errorf("codegen: set %d out of range", set)
		}
	}
	if s.NopPerRegion < 0 {
		return fmt.Errorf("codegen: negative nop count %d", s.NopPerRegion)
	}
	if s.NopPerRegion > 0 && (s.NopLen < 1 || s.NopLen > 15) {
		return fmt.Errorf("codegen: bad nop shape %d×%d", s.NopPerRegion, s.NopLen)
	}
	if s.MsromUops != 0 && (s.MsromUops < 5 || s.MsromUops > 200) {
		return fmt.Errorf("codegen: bad msrom µop count %d (want 0 or 5..200)", s.MsromUops)
	}
	if s.JccTailNops < 0 {
		return fmt.Errorf("codegen: negative jcc tail nop count %d", s.JccTailNops)
	}
	if s.JccTailNops > 0 && s.JccOffset == 0 {
		return fmt.Errorf("codegen: jcc tail nops without a jcc offset")
	}
	if s.JccOffset != 0 {
		if s.JccOffset < 3 {
			return fmt.Errorf("codegen: jcc offset %d leaves no room for the compare", s.JccOffset)
		}
		if s.MsromUops != 0 {
			return fmt.Errorf("codegen: jcc offset and msrom macro-op are exclusive")
		}
		if pad := s.NopPerRegion * s.NopLen; pad != s.JccOffset-3 {
			return fmt.Errorf("codegen: nop padding %d bytes does not place the jcc at offset %d (want %d)",
				pad, s.JccOffset, s.JccOffset-3)
		}
	}
	if body := s.regionBodyBytes(); body > RegionSize {
		return fmt.Errorf("codegen: region body %d bytes exceeds %d", body, RegionSize)
	}
	return nil
}

// regionBodyBytes returns the encoded size of one region: NOPs, the
// optional MSROM macro-op (3 bytes) or compare+jcc pair (5 bytes) and
// tail NOPs, and the 2-byte terminating jump.
func (s *ChainSpec) regionBodyBytes() int {
	body := s.NopPerRegion*s.NopLen + 2
	if s.MsromUops > 0 {
		body += 3
	}
	if s.JccOffset > 0 {
		body += 5 + s.JccTailNops
	}
	return body
}

// BodyBytes returns the encoded size of one region body — the span a
// fetch range must cover to stream the whole region.
func (s *ChainSpec) BodyBytes() int { return s.regionBodyBytes() }

// TailAddr returns a loop-tail address clear of the chain: one way
// stride past the chain's top way, in the first set index after
// Sets[0] that the chain itself does not occupy. Scanning past the
// chain's own sets matters when the set list is dense (a receiver
// probing adjacent divergent sets): the naive "+1" rule would park the
// tail inside a probed set, and the tail's own line would then pollute
// the very occupancy the probe measures. A chain that occupies every
// set leaves no such index, and TailAddr reports an error.
func (s *ChainSpec) TailAddr() (uint64, error) {
	nsets := s.numSets()
	tailSet := 0
	if len(s.Sets) > 0 {
		occupied := make(map[int]bool, len(s.Sets))
		for _, set := range s.Sets {
			occupied[set] = true
		}
		free := false
		for i := 1; i <= nsets && !free; i++ {
			tailSet = (s.Sets[0] + i) % nsets
			free = !occupied[tailSet]
		}
		if !free {
			return 0, fmt.Errorf("codegen: chain occupies all %d sets, no set is free for the loop tail", nsets)
		}
	}
	return s.Base + uint64(s.Ways+1)*s.wayStride() + uint64(tailSet)*RegionSize, nil
}

// UopsPerRegion returns the micro-op count of each region (NOPs, the
// optional MSROM macro-op or macro-fused compare+jcc pair and tail
// NOPs, plus the jump).
func (s *ChainSpec) UopsPerRegion() int {
	n := s.NopPerRegion + s.MsromUops + 1
	if s.JccOffset > 0 {
		n += 1 + s.JccTailNops
	}
	return n
}

// Regions returns the number of regions in the chain.
func (s *ChainSpec) Regions() int { return len(s.Sets) * s.Ways }

// TotalUops returns the chain's micro-op count per traversal.
func (s *ChainSpec) TotalUops() int { return s.Regions() * s.UopsPerRegion() }

// RegionAddr returns the address of the region at (set, way).
func (s *ChainSpec) RegionAddr(set, way int) uint64 {
	return s.Base + uint64(way)*s.wayStride() + uint64(set)*RegionSize
}

// region is one emission unit.
type region struct {
	addr  uint64
	label string
	next  string // label of the jump target ("" = exit)
}

// Emit lays the chain into b. Entry is at label "<Label>_entry"; the
// last region jumps to exitLabel (which the caller must define). The
// builder's PC must be at or below the chain's lowest address.
func (s *ChainSpec) Emit(b *asm.Builder, exitLabel string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var regs []region
	for si, set := range s.Sets {
		for w := 0; w < s.Ways; w++ {
			regs = append(regs, region{
				addr:  s.RegionAddr(set, w),
				label: fmt.Sprintf("%s_s%d_w%d", s.Label, si, w),
			})
		}
	}
	for i := range regs {
		if i+1 < len(regs) {
			regs[i].next = regs[i+1].label
		} else {
			regs[i].next = exitLabel
		}
	}

	// Emit in address order; traversal order lives in the jump links.
	emitOrder := make([]*region, len(regs))
	for i := range regs {
		emitOrder[i] = &regs[i]
	}
	sort.Slice(emitOrder, func(i, j int) bool { return emitOrder[i].addr < emitOrder[j].addr })
	for i, r := range emitOrder {
		if i > 0 && emitOrder[i-1].addr == r.addr {
			return fmt.Errorf("codegen: duplicate region address %#x", r.addr)
		}
		b.Org(r.addr)
		b.Label(r.label)
		for n := 0; n < s.NopPerRegion; n++ {
			if s.LCP {
				b.NopLCP(s.NopLen)
			} else {
				b.Nop(s.NopLen)
			}
		}
		if s.MsromUops > 0 {
			b.Msrom(s.MsromUops)
		}
		if s.JccOffset > 0 {
			// CMP R1,R1 always sets EQ, so the NE jump never fires:
			// architecturally a NOP pair, but the predecoder still has to
			// mark the branch — at offset 15 its second byte lands in the
			// next fetch window and the region stalls JccAlignPenalty
			// cycles on every legacy decode.
			b.Cmp(isa.R1, isa.R1)
			b.Jcc(isa.NE, r.next)
			for n := 0; n < s.JccTailNops; n++ {
				b.Nop(1)
			}
		}
		b.JmpShort(r.next)
	}
	return nil
}

// EntryLabel returns the label of the chain's first region.
func (s *ChainSpec) EntryLabel() string {
	return fmt.Sprintf("%s_s0_w0", s.Label)
}

// LoopProgram wraps the chain in a counted loop: the chain is traversed
// R14 times (the caller presets R14 before each run — keeping the
// count out of the code image means warm-up and measurement runs share
// one image, so the micro-op cache never serves a stale immediate),
// then the program halts. The loop tail is placed at tailAddr, which
// must not collide with the chain's regions.
func (s *ChainSpec) LoopProgram(tailAddr uint64) (*asm.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	lowest := s.RegionAddr(minInt(s.Sets), 0)
	if tailAddr >= lowest && tailAddr < s.RegionAddr(maxInt(s.Sets), s.Ways-1)+RegionSize {
		// The tail may still be legal if it dodges every region, but
		// keep the contract simple: require it clear of the span.
		return nil, fmt.Errorf("codegen: tail %#x inside chain span", tailAddr)
	}

	b := asm.New(minU64(tailAddr, lowest))
	emitTail := func() {
		b.Label("entry")
		b.Jmp(s.EntryLabel())
		b.Label("tail")
		b.Subi(isa.R14, 1)
		b.Cmpi(isa.R14, 0)
		b.Jcc(isa.NE, s.EntryLabel())
		b.Halt()
	}
	if tailAddr < lowest {
		// Tail first: header jumps into the chain.
		emitTail()
		if err := s.Emit(b, "tail"); err != nil {
			return nil, err
		}
		return b.Build()
	}
	if err := s.Emit(b, "tail"); err != nil {
		return nil, err
	}
	b.Org(tailAddr)
	emitTail()
	return b.Build()
}

func minInt(v []int) int {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(v []int) int {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// EvenSets returns n set indices evenly spaced across the classic 32
// sets, starting at first — the striped occupation of Fig 8.
func EvenSets(n, first int) []int { return EvenSetsIn(0, n, first) }

// EvenSetsIn is EvenSets across a cache of total sets (0 selects the
// classic 32-set layout) — the profile matrix stripes Zen 2's 64-set
// cache through it.
func EvenSetsIn(total, n, first int) []int {
	if n <= 0 {
		return nil
	}
	if total <= 0 {
		total = WayStride / RegionSize
	}
	stride := total / n
	if stride == 0 {
		stride = 1
	}
	sets := make([]int, 0, n)
	for i := 0; i < n; i++ {
		sets = append(sets, (first+i*stride)%total)
	}
	return sets
}

// SequentialRegions emits count contiguous 32-byte regions starting at
// the builder's (32-aligned) PC, each holding exactly uopsPerRegion
// micro-ops as NOPs (the Listing 1 layout: nop15, nop15, nop2 for 3
// µops in 32 bytes). Control falls through region to region.
func SequentialRegions(b *asm.Builder, count, uopsPerRegion int) error {
	if uopsPerRegion < 1 || uopsPerRegion > RegionSize {
		return fmt.Errorf("codegen: %d µops per 32-byte region not encodable", uopsPerRegion)
	}
	if b.PC()%RegionSize != 0 {
		return fmt.Errorf("codegen: PC %#x not 32-aligned", b.PC())
	}
	for i := 0; i < count; i++ {
		b.NopRegion(RegionSize, uopsPerRegion)
	}
	return nil
}

// SequentialLoop builds the Listing 1 microbenchmark: a loop over
// `regions` contiguous 32-byte regions of uopsPerRegion µops each,
// iterated R14 times (preset by the caller before each run).
func SequentialLoop(base uint64, regions, uopsPerRegion int) (*asm.Program, error) {
	b := asm.New(base)
	b.Align(RegionSize)
	b.Label("entry")
	b.Label("loop")
	if err := SequentialRegions(b, regions, uopsPerRegion); err != nil {
		return nil, err
	}
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	return b.Build()
}

package codegen

import (
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

func TestChainValidate(t *testing.T) {
	good := ChainSpec{Base: 0x10000, Sets: []int{0, 4}, Ways: 4, NopPerRegion: 2, NopLen: 14}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []ChainSpec{
		{Base: 0x10001, Sets: []int{0}, Ways: 1},                              // misaligned
		{Base: 0x10000, Sets: nil, Ways: 1},                                   // no sets
		{Base: 0x10000, Sets: []int{0}, Ways: 0},                              // no ways
		{Base: 0x10000, Sets: []int{32}, Ways: 1},                             // set out of range
		{Base: 0x10000, Sets: []int{0}, Ways: 1, NopPerRegion: 3, NopLen: 15}, // 47 bytes
		{Base: 0x10000, Sets: []int{0}, Ways: 1, NopPerRegion: 1, NopLen: 16}, // bad nop
		{Base: 0x10000, Sets: []int{0}, Ways: 1, NopPerRegion: -1, NopLen: 1}, // negative
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestChainGeometryHelpers(t *testing.T) {
	s := ChainSpec{Base: 0x10000, Sets: []int{1, 5}, Ways: 3, NopPerRegion: 2, NopLen: 10}
	if s.Regions() != 6 || s.UopsPerRegion() != 3 || s.TotalUops() != 18 {
		t.Errorf("geometry %d/%d/%d", s.Regions(), s.UopsPerRegion(), s.TotalUops())
	}
	if got := s.RegionAddr(5, 2); got != 0x10000+2*1024+5*32 {
		t.Errorf("RegionAddr %#x", got)
	}
}

func TestChainRegionsLandInDeclaredSets(t *testing.T) {
	s := ChainSpec{Base: 0x10000, Sets: []int{3, 19}, Ways: 4, Label: "c"}
	for _, set := range s.Sets {
		for w := 0; w < s.Ways; w++ {
			addr := s.RegionAddr(set, w)
			if got := int(addr>>5) & 31; got != set {
				t.Errorf("region (%d,%d) at %#x maps to set %d", set, w, addr, got)
			}
		}
	}
}

func TestChainTraversalOrder(t *testing.T) {
	// Executing the loop must touch every region exactly once per
	// iteration, verified by instruction count.
	s := &ChainSpec{Base: 0x10000, Sets: []int{0, 8}, Ways: 3,
		NopPerRegion: 1, NopLen: 5, Label: "c"}
	prog, err := s.LoopProgram(s.Base + 5*WayStride + 16*RegionSize)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 10)
	res := c.Run(0, prog.Entry, 1_000_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	// Per iteration: 6 regions × (1 nop + 1 jmp) + tail (sub, cmp, jcc)
	// = 15 macro-ops; plus the entry jmp once.
	want := uint64(10*15 + 1 + 1) // + final halt
	if res.Retired != want {
		t.Errorf("retired %d, want %d", res.Retired, want)
	}
}

func TestLoopProgramTailCollision(t *testing.T) {
	s := &ChainSpec{Base: 0x10000, Sets: []int{0}, Ways: 4, Label: "c"}
	if _, err := s.LoopProgram(s.Base + 1024); err == nil {
		t.Error("tail inside chain span accepted")
	}
}

func TestLoopProgramTailBeforeChain(t *testing.T) {
	s := &ChainSpec{Base: 0x10000, Sets: []int{0}, Ways: 2, Label: "c"}
	prog, err := s.LoopProgram(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 3)
	if res := c.Run(0, prog.Entry, 100_000); res.TimedOut {
		t.Error("tail-first layout timed out")
	}
}

func TestEvenSets(t *testing.T) {
	cases := []struct {
		n, first int
		want     []int
	}{
		{4, 0, []int{0, 8, 16, 24}},
		{4, 2, []int{2, 10, 18, 26}},
		{8, 0, []int{0, 4, 8, 12, 16, 20, 24, 28}},
		{1, 5, []int{5}},
		{32, 0, nil}, // all sets: stride 1
	}
	for _, tc := range cases {
		got := EvenSets(tc.n, tc.first)
		if tc.want == nil {
			if len(got) != tc.n {
				t.Errorf("EvenSets(%d,%d) len %d", tc.n, tc.first, len(got))
			}
			continue
		}
		if len(got) != len(tc.want) {
			t.Fatalf("EvenSets(%d,%d) = %v", tc.n, tc.first, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("EvenSets(%d,%d) = %v, want %v", tc.n, tc.first, got, tc.want)
				break
			}
		}
	}
	if EvenSets(0, 0) != nil {
		t.Error("EvenSets(0) not nil")
	}
}

func TestSequentialRegionsAlignment(t *testing.T) {
	s := &ChainSpec{}
	_ = s
	prog, err := SequentialLoop(0x10000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 4 regions must start 32-aligned and hold 3 NOPs.
	nops := 0
	for _, in := range prog.Insts {
		if in.Op == isa.NOP {
			nops++
		}
	}
	if nops != 12 {
		t.Errorf("nops %d, want 12", nops)
	}
}

func TestSequentialLoopExecutes(t *testing.T) {
	prog, err := SequentialLoop(0x10000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 5)
	res := c.Run(0, prog.Entry, 1_000_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R14); got != 0 {
		t.Errorf("loop counter %d after run", got)
	}
}

func TestSequentialRejectsUnencodable(t *testing.T) {
	if _, err := SequentialLoop(0x10000, 2, 64); err == nil {
		t.Error("64 µops per 32-byte region accepted")
	}
	// A misaligned base is fine: the builder aligns to the next
	// 32-byte boundary before the first region.
	prog, err := SequentialLoop(0x10001, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if prog.MustLabel("loop")%RegionSize != 0 {
		t.Error("loop start not region-aligned")
	}
}

func TestChainMsromEmission(t *testing.T) {
	// A chain with MsromUops set must place exactly one microcoded
	// macro-op of that µop count in every region, and the geometry
	// helpers must price it into the per-traversal µop total.
	s := &ChainSpec{Base: 0x10000, Sets: []int{2, 9}, Ways: 2,
		NopPerRegion: 1, NopLen: 4, MsromUops: 8, Label: "m"}
	if got, want := s.UopsPerRegion(), 1+8+1; got != want {
		t.Errorf("UopsPerRegion = %d, want %d", got, want)
	}
	if got, want := s.TotalUops(), 4*(1+8+1); got != want {
		t.Errorf("TotalUops = %d, want %d", got, want)
	}
	prog, err := s.LoopProgram(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	perRegion := map[uint64]int{}
	for _, in := range prog.Insts {
		if in.Op != isa.MSROMOP {
			continue
		}
		if in.UopCount != 8 {
			t.Errorf("msrom at %#x has UopCount %d, want 8", in.Addr, in.UopCount)
		}
		perRegion[in.Addr&^uint64(RegionSize-1)]++
	}
	if len(perRegion) != s.Regions() {
		t.Fatalf("msrom ops span %d regions, want %d", len(perRegion), s.Regions())
	}
	for addr, n := range perRegion {
		if n != 1 {
			t.Errorf("region %#x holds %d msrom ops, want 1", addr, n)
		}
	}
	// The chain must still execute end to end.
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 2)
	if res := c.Run(0, prog.Entry, 1_000_000); res.TimedOut {
		t.Error("msrom chain timed out")
	}
}

// TestProbeChainShape pins the shared tiger region shape: ProbeChain
// over an arbitrary set list must produce the same region bodies the
// attack tigers use (two LCP 14-byte NOPs plus the jump).
func TestProbeChainShape(t *testing.T) {
	s := ProbeChain(0x40000, []int{3, 7, 19}, 8, "probe")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NopPerRegion != TigerNops || s.NopLen != TigerNopLen || !s.LCP {
		t.Errorf("probe chain shape %+v not tiger-shaped", s)
	}
	if s.UopsPerRegion() != 3 {
		t.Errorf("probe region µops %d, want 3", s.UopsPerRegion())
	}
	if got := s.BodyBytes(); got != TigerNops*TigerNopLen+2 {
		t.Errorf("probe region body %d bytes, want %d", got, TigerNops*TigerNopLen+2)
	}
	if s.Regions() != 24 {
		t.Errorf("regions %d, want 3 sets × 8 ways", s.Regions())
	}
}

// TestTailAddrAvoidsChainSets is the regression for the old "+1" tail
// rule: with a dense set list the tail used to land inside a probed
// set, polluting the occupancy the probe measures.
func TestTailAddrAvoidsChainSets(t *testing.T) {
	cases := [][]int{
		{4},          // sparse: tail in set 5, as before
		{1, 2, 3, 4}, // dense ascending: +1 would collide with set 2
		{31, 0, 1},   // wraps past set 31
		{5, 9, 6, 7}, // unsorted with a gap
	}
	for _, sets := range cases {
		s := ProbeChain(0x40000, sets, 2, "p")
		tail, err := s.TailAddr()
		if err != nil {
			t.Fatalf("sets %v: %v", sets, err)
		}
		tailSet := int(tail / RegionSize % (WayStride / RegionSize))
		for _, set := range sets {
			if tailSet == set {
				t.Errorf("sets %v: tail %#x lands in probed set %d", sets, tail, set)
			}
		}
		lo := s.RegionAddr(minInt(s.Sets), 0)
		hi := s.RegionAddr(maxInt(s.Sets), s.Ways-1) + RegionSize
		if tail >= lo && tail < hi {
			t.Errorf("sets %v: tail %#x inside chain span [%#x,%#x)", sets, tail, lo, hi)
		}
		if _, err := s.LoopProgram(tail); err != nil {
			t.Errorf("sets %v: loop program rejects own tail: %v", sets, err)
		}
	}
}

// TestTailAddrFullChainErrors is the regression for a chain over every
// set of its geometry: no set is free for the loop tail, and the scan
// must report that instead of looping forever.
func TestTailAddrFullChainErrors(t *testing.T) {
	for _, nsets := range []int{0, 64} {
		s := ProbeChain(0x40000, nil, 2, "p")
		s.NumSets = nsets
		for set := 0; set < s.numSets(); set++ {
			s.Sets = append(s.Sets, (set+5)%s.numSets())
		}
		if tail, err := s.TailAddr(); err == nil {
			t.Errorf("%d sets: full chain got tail %#x, want an error", s.numSets(), tail)
		}
		// One free set is enough, wherever it falls in the scan.
		s.Sets = s.Sets[:len(s.Sets)-1]
		tail, err := s.TailAddr()
		if err != nil {
			t.Fatalf("%d sets: one free set: %v", s.numSets(), err)
		}
		if got, want := int(tail/RegionSize)%s.numSets(), 4; got != want {
			t.Errorf("%d sets: tail in set %d, want the free set %d", s.numSets(), got, want)
		}
	}
}

// TestChainJccOffsetEmission pins the alignment-channel region shape:
// a JccOffset chain must place the never-taken conditional jump at
// exactly the requested byte offset of every region, with the compare
// immediately before it and the tail NOPs between it and the chain
// jump.
func TestChainJccOffsetEmission(t *testing.T) {
	straddle := &ChainSpec{Base: 0x10000, Sets: []int{0, 8}, Ways: 2,
		NopPerRegion: 3, NopLen: 4, JccOffset: 15, JccTailNops: 4, Label: "a"}
	if err := straddle.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := straddle.UopsPerRegion(), 3+1+4+1; got != want {
		t.Errorf("UopsPerRegion = %d, want %d", got, want)
	}
	if got, want := straddle.BodyBytes(), 15+2+4+2; got != want {
		t.Errorf("BodyBytes = %d, want %d", got, want)
	}
	prog, err := straddle.LoopProgram(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	cmps, jccs := map[uint64]bool{}, map[uint64]bool{}
	for _, in := range prog.Insts {
		off := in.Addr % RegionSize
		switch {
		case in.Op == isa.CMP && !in.HasImm:
			cmps[in.Addr-off] = off == 12
		case in.Op == isa.JCC && in.Cond == isa.NE && in.Addr >= straddle.Base:
			jccs[in.Addr-off] = off == 15
		}
	}
	if len(cmps) != straddle.Regions() || len(jccs) != straddle.Regions() {
		t.Fatalf("cmp/jcc in %d/%d regions, want %d", len(cmps), len(jccs), straddle.Regions())
	}
	for addr, ok := range cmps {
		if !ok {
			t.Errorf("region %#x: compare not at offset 12", addr)
		}
	}
	for addr, ok := range jccs {
		if !ok {
			t.Errorf("region %#x: jcc not at offset 15", addr)
		}
	}
	// The never-taken jump must not change traversal: the loop runs to
	// completion and drains the counter.
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 5)
	if res := c.Run(0, prog.Entry, 1_000_000); res.TimedOut {
		t.Fatal("jcc chain timed out")
	}
	if got := c.Reg(0, isa.R14); got != 0 {
		t.Errorf("loop counter %d after run", got)
	}
}

// TestChainJccOffsetMatchedPair verifies the channel's two halves can
// be built µop-identical: a straddling chain (jcc at 15) and an aligned
// chain (jcc at 12) with matched µop counts and predecode windows, so
// the only per-region cost difference is the alignment stall.
func TestChainJccOffsetMatchedPair(t *testing.T) {
	straddle := &ChainSpec{Base: 0x10000, Sets: []int{0}, Ways: 2,
		NopPerRegion: 3, NopLen: 4, JccOffset: 15, JccTailNops: 4, Label: "s"}
	aligned := &ChainSpec{Base: 0x10000, Sets: []int{0}, Ways: 2,
		NopPerRegion: 3, NopLen: 3, JccOffset: 12, JccTailNops: 4, Label: "l"}
	for _, s := range []*ChainSpec{straddle, aligned} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if straddle.UopsPerRegion() != aligned.UopsPerRegion() {
		t.Errorf("µops differ: %d vs %d", straddle.UopsPerRegion(), aligned.UopsPerRegion())
	}
	sw := (straddle.BodyBytes() + 15) / 16
	aw := (aligned.BodyBytes() + 15) / 16
	if sw != aw {
		t.Errorf("predecode windows differ: %d vs %d", sw, aw)
	}
}

func TestChainJccOffsetValidate(t *testing.T) {
	bad := []ChainSpec{
		// Padding does not reach the offset.
		{Base: 0x10000, Sets: []int{0}, Ways: 1, NopPerRegion: 2, NopLen: 4, JccOffset: 15},
		// MSROM macro-op and jcc are exclusive.
		{Base: 0x10000, Sets: []int{0}, Ways: 1, MsromUops: 8, JccOffset: 3},
		// No room for the compare.
		{Base: 0x10000, Sets: []int{0}, Ways: 1, JccOffset: 2},
		// Tail nops without a jcc.
		{Base: 0x10000, Sets: []int{0}, Ways: 1, JccTailNops: 3},
		// Body overflows the region.
		{Base: 0x10000, Sets: []int{0}, Ways: 1, NopPerRegion: 4, NopLen: 5, JccOffset: 23, JccTailNops: 6},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad jcc spec %d accepted", i)
		}
	}
}

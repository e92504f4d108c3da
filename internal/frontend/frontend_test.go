package frontend

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/bpu"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"
)

// harness builds a standalone fetch engine over a program. The
// instruction cache is pre-warmed so tests observe fetch-engine timing
// rather than DRAM fill latency.
func harness(p *asm.Program) (*FrontEnd, *uopcache.Cache, *perfctr.Counters) {
	uc := uopcache.New(uopcache.Skylake())
	hier := mem.NewHierarchy(mem.DefaultHierarchy())
	bp := bpu.New(bpu.DefaultConfig())
	ctr := &perfctr.Counters{}
	fe := New(DefaultConfig(), 0, uc, hier, bp, ctr)
	fe.SetProgram(p)
	for _, in := range p.Insts {
		hier.AccessInst(in.Addr)
		hier.AccessInst(in.End())
	}
	return fe, uc, ctr
}

// drain ticks the engine up to n cycles, popping everything into a
// slice.
func drain(fe *FrontEnd, cycles int) []isa.Uop {
	var out []isa.Uop
	for i := 0; i < cycles; i++ {
		fe.Tick()
		out = append(out, fe.Pop(64)...)
	}
	return out
}

func TestFetchStraightLine(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(4)
	b.Nop(4)
	b.Movi(isa.R1, 7)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 50)
	if len(uops) != 4 {
		t.Fatalf("delivered %d µops, want 4", len(uops))
	}
	if uops[2].Op != isa.MOVI || uops[2].Imm != 7 {
		t.Errorf("µop 2 = %+v", uops[2])
	}
	if uops[3].Op != isa.HALT {
		t.Errorf("last µop %v", uops[3].Op)
	}
}

func TestFetchFollowsJumps(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmp("far")
	b.Org(0x3000)
	b.Label("far")
	b.Nop(5)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 50)
	if len(uops) != 3 {
		t.Fatalf("delivered %d µops", len(uops))
	}
	if uops[1].MacroAddr != 0x3000 {
		t.Errorf("fetch did not follow the jump: %#x", uops[1].MacroAddr)
	}
}

func TestSecondFetchStreamsFromDSB(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 6; i++ {
		b.Nop(5)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 60)
	miteCold := ctr.Get(perfctr.MITEUops)
	if miteCold == 0 {
		t.Fatal("cold fetch did not use the legacy pipeline")
	}
	fe.Redirect(p.Entry)
	drain(fe, 60)
	if got := ctr.Get(perfctr.MITEUops); got != miteCold {
		t.Errorf("warm fetch decoded %d more µops via MITE", got-miteCold)
	}
	if ctr.Get(perfctr.DSBUops) == 0 {
		t.Error("warm fetch delivered nothing from the µop cache")
	}
}

func TestIDQBackpressure(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 100; i++ {
		b.Nop(1)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 200; i++ {
		fe.Tick()
		if fe.IDQLen() > DefaultConfig().IDQCapacity {
			t.Fatalf("IDQ overflowed: %d", fe.IDQLen())
		}
	}
	if fe.IDQLen() != DefaultConfig().IDQCapacity {
		t.Errorf("IDQ not full under backpressure: %d", fe.IDQLen())
	}
}

func TestRedirectClearsIDQ(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 10; i++ {
		b.Nop(1)
	}
	b.Halt()
	b.Org(0x2000)
	b.Label("alt")
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 10; i++ {
		fe.Tick()
	}
	if fe.IDQLen() == 0 {
		t.Fatal("nothing buffered")
	}
	fe.Redirect(p.MustLabel("alt"))
	if fe.IDQLen() != 0 {
		t.Error("IDQ survived redirect")
	}
	uops := drain(fe, 20)
	if len(uops) != 1 || uops[0].Op != isa.HALT {
		t.Errorf("post-redirect stream %+v", uops)
	}
}

func TestUnmappedFetchStalls(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(1)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(0x9999) // unmapped
	uops := drain(fe, 20)
	if len(uops) != 0 {
		t.Errorf("unmapped fetch delivered %d µops", len(uops))
	}
	// A redirect to valid code recovers.
	fe.Redirect(p.Entry)
	if uops := drain(fe, 20); len(uops) != 2 {
		t.Errorf("recovery delivered %d µops", len(uops))
	}
}

func TestBranchAnnotations(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmp("next")
	b.Label("next")
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 30)
	if len(uops) < 1 {
		t.Fatal("nothing delivered")
	}
	jmp := uops[0]
	if !jmp.PredTaken || jmp.PredTarget != p.MustLabel("next") {
		t.Errorf("jump annotation %+v", jmp)
	}
}

func TestAddStallDelaysDelivery(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(1)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	fe.AddStall(10)
	count := 0
	for i := 0; i < 10; i++ {
		fe.Tick()
		count += len(fe.Pop(64))
	}
	if count != 0 {
		t.Errorf("%d µops delivered during stall", count)
	}
	if uops := drain(fe, 30); len(uops) != 2 {
		t.Errorf("post-stall delivery %d", len(uops))
	}
}

func TestDSBMissSwitchCounted(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(5)
	b.Halt()
	p := b.MustBuild()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 30)
	if ctr.Get(perfctr.DSB2MITESwitches) == 0 {
		t.Error("cold fetch recorded no DSB→MITE switch")
	}
	if ctr.Get(perfctr.DSBMissPenaltyCycles) == 0 {
		t.Error("cold fetch recorded no switch penalty")
	}
}

func TestPopPartial(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 8; i++ {
		b.Nop(1)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 20 && fe.IDQLen() < 4; i++ {
		fe.Tick()
	}
	got := fe.Pop(2)
	if len(got) != 2 {
		t.Fatalf("Pop(2) returned %d", len(got))
	}
	if got[0].MacroAddr != 0x1000 || got[1].MacroAddr != 0x1001 {
		t.Error("pop order wrong")
	}
}

// lsdHarness builds a fetch engine with the loop stream detector
// enabled. The loop branch is pre-trained taken (standing in for the
// backend's resolution feedback, which these standalone-frontend tests
// don't have).
func lsdHarness(p *asm.Program, capacity int) (*FrontEnd, *uopcache.Cache, *perfctr.Counters) {
	uc := uopcache.New(uopcache.Skylake())
	hier := mem.NewHierarchy(mem.DefaultHierarchy())
	bp := bpu.New(bpu.DefaultConfig())
	ctr := &perfctr.Counters{}
	cfg := DefaultConfig()
	cfg.LSDCapacity = capacity
	fe := New(cfg, 0, uc, hier, bp, ctr)
	fe.SetProgram(p)
	for _, in := range p.Insts {
		hier.AccessInst(in.Addr)
		hier.AccessInst(in.End())
		if in.Op == isa.JCC {
			bp.UpdateDirection(in.Addr, true, false)
			bp.UpdateDirection(in.Addr, true, false)
		}
	}
	return fe, uc, ctr
}

// loopProg builds a tight backward loop (taken while the predictor says
// so).
func loopProg() *asm.Program {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Nop(4)
	b.Nop(4)
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestLSDLocksLoop(t *testing.T) {
	p := loopProg()
	fe, uc, ctr := lsdHarness(p, 64)
	fe.Redirect(p.Entry)
	// Train the loop branch taken first so fetch keeps looping, then
	// let the LSD observe a repeat. Drive ticks and drain.
	for i := 0; i < 200; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if ctr.Get(perfctr.LSDUops) == 0 {
		t.Fatal("LSD never locked the loop")
	}
	// Once locked, µop cache lookups stop growing.
	lookups := uc.Stats().Lookups
	for i := 0; i < 100; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if got := uc.Stats().Lookups; got != lookups {
		t.Errorf("µop cache still probed during LSD replay (+%d lookups)", got-lookups)
	}
}

func TestLSDDisabledByDefault(t *testing.T) {
	p := loopProg()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 200; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if ctr.Get(perfctr.LSDUops) != 0 {
		t.Error("LSD active on the default (SKL150) configuration")
	}
}

func TestLSDRedirectUnlocks(t *testing.T) {
	p := loopProg()
	fe, _, ctr := lsdHarness(p, 64)
	fe.Redirect(p.Entry)
	for i := 0; i < 200; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if ctr.Get(perfctr.LSDUops) == 0 {
		t.Fatal("LSD never locked")
	}
	// A redirect (as the loop-exit mispredict recovery would issue)
	// must unlock the LSD and resume normal fetch.
	fe.Redirect(p.MustLabel("loop"))
	before := ctr.Get(perfctr.LSDUops)
	fe.Tick()
	fe.Pop(64)
	// First post-redirect group refetches normally (the log was
	// cleared), so LSD µops must not continue immediately.
	if got := ctr.Get(perfctr.LSDUops); got != before {
		t.Errorf("LSD delivered %d µops immediately after redirect", got-before)
	}
}

func TestLSDCapacityRespected(t *testing.T) {
	p := loopProg()                // 5 µops per iteration (fused cmp+jcc)
	fe, _, ctr := lsdHarness(p, 2) // too small for the loop
	fe.Redirect(p.Entry)
	for i := 0; i < 200; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if ctr.Get(perfctr.LSDUops) != 0 {
		t.Error("LSD locked a loop larger than its capacity")
	}
}

// TestRedirectMidPlanResetsLSDRecord: a squash in the middle of a MITE
// plan must discard the µops that plan already delivered, so the next
// MITE group's LSD record holds that group's µops alone.
func TestRedirectMidPlanResetsLSDRecord(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 10; i++ {
		b.Nop(1) // three decode cycles of five macro-ops
	}
	b.Halt()
	b.Org(0x2000)
	b.Label("alt")
	b.Nop(1)
	b.Nop(1)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := lsdHarness(p, 64)
	fe.Redirect(p.Entry)
	for i := 0; i < 50 && len(fe.planDelivered) == 0; i++ {
		fe.Tick()
		fe.Pop(64)
	}
	if fe.plan == nil || len(fe.planDelivered) == 0 {
		t.Fatal("never caught the MITE plan part-way through")
	}
	alt := p.MustLabel("alt")
	fe.Redirect(alt)
	drain(fe, 50)
	if len(fe.lsdLog) != 1 {
		t.Fatalf("LSD log holds %d groups, want 1", len(fe.lsdLog))
	}
	rec := fe.lsdLog[0]
	if rec.entry != alt || len(rec.uops) != 3 {
		t.Fatalf("LSD record entry %#x with %d µops, want %#x with 3", rec.entry, len(rec.uops), alt)
	}
	for _, u := range rec.uops {
		if u.MacroAddr < alt {
			t.Errorf("LSD record kept aborted µop at %#x", u.MacroAddr)
		}
	}
}

// TestMemoSurvivesRestoreClearsOnNewProgram: the fetch memo is derived
// from the program alone, so a checkpoint restore keeps it warm and
// reinstalling the same program keeps it, while a different program
// clears it.
func TestMemoSurvivesRestoreClearsOnNewProgram(t *testing.T) {
	p := loopProg()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 100)
	n := len(fe.memo)
	if n == 0 {
		t.Fatal("fetch left the memo empty")
	}
	var s State
	fe.Save(&s)
	fe.Restore(&s)
	fe.SetProgram(p)
	if got := len(fe.memo); got != n {
		t.Errorf("restore to the same program left %d memo entries, want %d", got, n)
	}
	fe.SetProgram(loopProg())
	if got := len(fe.memo); got != 0 {
		t.Errorf("a new program kept %d memo entries", got)
	}
}

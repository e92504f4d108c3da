package backend

import (
	"testing"
	"testing/quick"

	"deaduops/internal/isa"
)

func TestAluOpValues(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.ADD, 3, 4, 7},
		{isa.SUB, 10, 4, 6},
		{isa.AND, 0xF0, 0x3C, 0x30},
		{isa.OR, 0xF0, 0x0F, 0xFF},
		{isa.XOR, 0xFF, 0x0F, 0xF0},
		{isa.SHL, 1, 4, 16},
		{isa.SHR, 16, 4, 1},
		{isa.SHR, -1, 60, 15}, // logical shift
	}
	for _, tc := range cases {
		got, _ := aluOp(tc.op, tc.a, tc.b)
		if got != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAluOpFlags(t *testing.T) {
	_, f := aluOp(isa.SUB, 5, 5)
	if !f.Zero || f.Sign || f.Carry {
		t.Errorf("5-5 flags %+v", f)
	}
	_, f = aluOp(isa.SUB, 3, 5)
	if f.Zero || !f.Sign || !f.Carry {
		t.Errorf("3-5 flags %+v", f)
	}
	_, f = aluOp(isa.SUB, 5, 3)
	if f.Zero || f.Sign || f.Carry {
		t.Errorf("5-3 flags %+v", f)
	}
}

func TestAluShiftMasksCount(t *testing.T) {
	// Shift counts use the low 6 bits, like x86-64.
	f := func(a int64, n uint8) bool {
		got, _ := aluOp(isa.SHL, a, int64(n))
		want := a << (uint64(n) & 63)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWritesRegClassification(t *testing.T) {
	cases := []struct {
		uop  isa.Uop
		reg  isa.Reg
		want bool
	}{
		{isa.Uop{Op: isa.MOVI, Dst: isa.R3}, isa.R3, true},
		{isa.Uop{Op: isa.LOAD, Dst: isa.R4}, isa.R4, true},
		{isa.Uop{Op: isa.NOP, Dst: isa.NoReg}, isa.NoReg, false},
		{isa.Uop{Op: isa.CMP, Dst: isa.R1}, isa.NoReg, false},
		{isa.Uop{Op: isa.CALL, Index: 0, Count: 2}, isa.R15, true}, // push
		{isa.Uop{Op: isa.CALL, Index: 1, Count: 2}, isa.NoReg, false},
		{isa.Uop{Op: isa.RET, Index: 0, Count: 2}, isa.NoReg, false}, // pop temp
		{isa.Uop{Op: isa.RET, Index: 1, Count: 2}, isa.R15, true},
		{isa.Uop{Op: isa.RDTSC, Index: 0, Count: 2, Dst: isa.R2}, isa.R2, true},
		{isa.Uop{Op: isa.RDTSC, Index: 1, Count: 2, Dst: isa.R2}, isa.NoReg, false},
		{isa.Uop{Op: isa.STORE, Dst: isa.R2}, isa.NoReg, false},
	}
	for _, tc := range cases {
		e := &entry{uop: tc.uop}
		r, ok := e.writesReg()
		if ok != tc.want || (ok && r != tc.reg) {
			t.Errorf("%v[%d]: writesReg = (%v, %v), want (%v, %v)",
				tc.uop.Op, tc.uop.Index, r, ok, tc.reg, tc.want)
		}
	}
}

func TestWritesFlagsClassification(t *testing.T) {
	writers := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.CMP, isa.TEST}
	for _, op := range writers {
		if !(&entry{uop: isa.Uop{Op: op}}).writesFlags() {
			t.Errorf("%v does not write flags", op)
		}
	}
	nonWriters := []isa.Op{isa.NOP, isa.MOVI, isa.MOV, isa.LOAD, isa.JMP}
	for _, op := range nonWriters {
		if (&entry{uop: isa.Uop{Op: op}}).writesFlags() {
			t.Errorf("%v writes flags", op)
		}
	}
	// A fused compare+branch writes flags regardless of its branch op.
	if !(&entry{uop: isa.Uop{Op: isa.JCC, Fused: true}}).writesFlags() {
		t.Error("fused JCC does not write flags")
	}
}

func TestLoadStoreClassifiers(t *testing.T) {
	if !isLoad(&isa.Uop{Op: isa.LOAD}) || !isLoad(&isa.Uop{Op: isa.LOADB}) {
		t.Error("plain loads not classified")
	}
	if !isLoad(&isa.Uop{Op: isa.RET, Index: 0, Count: 2}) {
		t.Error("RET pop not a load")
	}
	if isLoad(&isa.Uop{Op: isa.RET, Index: 1, Count: 2}) {
		t.Error("RET branch classified as load")
	}
	if !isStore(&isa.Uop{Op: isa.STORE}) || !isStore(&isa.Uop{Op: isa.STOREB}) {
		t.Error("stores not classified")
	}
	if !isStore(&isa.Uop{Op: isa.CALL, Index: 0, Count: 2}) {
		t.Error("CALL push not a store")
	}
	if isStore(&isa.Uop{Op: isa.CALL, Index: 1, Count: 2}) {
		t.Error("CALL branch classified as store")
	}
	if isStore(&isa.Uop{Op: isa.NOP}) || isLoad(&isa.Uop{Op: isa.NOP}) {
		t.Error("NOP classified as memory op")
	}
}

func TestDepHelpers(t *testing.T) {
	var b Backend
	done := &entry{done: true, val: 42, outFlags: isa.Flags{Zero: true}}
	pend := &entry{}
	e := &entry{}
	b.link(done, e, 5, opSrc1)
	b.link(done, e, 5, opFlags)
	if e.v1 != 42 || !e.inFlags.Zero || e.waiting != 0 || done.consumers != 0 {
		t.Errorf("a completed producer should deliver at once: %+v", e)
	}
	b.link(pend, e, 5, opSrc2)
	if w := pend.consumers; e.waiting != 1 || w.pos() != 5 || w.op() != opSrc2 || e.next[opSrc2] != 0 {
		t.Errorf("a pending producer should queue the operand: waiting %d, consumers %d", e.waiting, w)
	}
	pend.val = 7
	e.deliver(pend, opSrc2)
	if e.v2 != 7 {
		t.Errorf("deliver wrote v2 = %d, want 7", e.v2)
	}
}

func TestPosSetNext(t *testing.T) {
	// A ROB holding the seqs [400, 656), which wrap past the last
	// position.
	var s posSet
	for _, seq := range []uint64{410, 455, 520, 600} {
		s.add(seq % robPositions)
	}
	cases := []struct{ from, to, want uint64 }{
		{400, 656, 410},
		{411, 656, 455},
		{456, 656, 520}, // wrapped: seq 520 sits at position 8
		{521, 656, 600},
		{601, 656, 656}, // none left
		{411, 450, 450}, // none before the bound
		{450, 600, 455},
	}
	for _, c := range cases {
		if got := s.next(c.from, c.to); got != c.want {
			t.Errorf("next(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ROBSize < cfg.DispatchWidth || cfg.RetireWidth == 0 || cfg.ExecPorts == 0 {
		t.Errorf("config %+v", cfg)
	}
}

package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestUopSize pins the µop at 56 bytes. Every delivered µop is copied
// three times (DSB line → stream buffer → IDQ → ROB entry), so a field
// added or placed without regard to alignment makes every delivery
// dearer: widen the budget here only on purpose.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(Uop{}); got != 56 {
		t.Errorf("sizeof(Uop) = %d bytes, want 56", got)
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		NOP: "nop", MOVI: "movi", JMP: "jmp", JCC: "jcc",
		LFENCE: "lfence", CPUID: "cpuid", PAUSE: "pause",
		MSROMOP: "msrom", SYSCALL: "syscall", HALT: "halt",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("unknown op string %q", got)
	}
}

func TestRegString(t *testing.T) {
	if got := R5.String(); got != "r5" {
		t.Errorf("R5 = %q", got)
	}
	if got := NoReg.String(); got != "-" {
		t.Errorf("NoReg = %q", got)
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		cond Cond
		f    Flags
		want bool
	}{
		{EQ, Flags{Zero: true}, true},
		{EQ, Flags{}, false},
		{NE, Flags{}, true},
		{NE, Flags{Zero: true}, false},
		{LT, Flags{Sign: true}, true},
		{LT, Flags{}, false},
		{GE, Flags{}, true},
		{GE, Flags{Sign: true}, false},
		{GT, Flags{}, true},
		{GT, Flags{Zero: true}, false},
		{GT, Flags{Sign: true}, false},
		{LE, Flags{Zero: true}, true},
		{LE, Flags{Sign: true}, true},
		{LE, Flags{}, false},
		{B, Flags{Carry: true}, true},
		{B, Flags{}, false},
		{AE, Flags{}, true},
		{AE, Flags{Carry: true}, false},
	}
	for _, tc := range cases {
		if got := tc.cond.Eval(tc.f); got != tc.want {
			t.Errorf("%v.Eval(%+v) = %v, want %v", tc.cond, tc.f, got, tc.want)
		}
	}
	if Cond(99).Eval(Flags{Zero: true}) {
		t.Error("unknown condition evaluated true")
	}
}

func TestCondComplementary(t *testing.T) {
	// Each condition and its complement must disagree on every flag
	// combination.
	pairs := [][2]Cond{{EQ, NE}, {LT, GE}, {GT, LE}, {B, AE}}
	f := func(zero, sign, carry bool) bool {
		fl := Flags{Zero: zero, Sign: sign, Carry: carry}
		for _, p := range pairs {
			if p[0].Eval(fl) == p[1].Eval(fl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUopCounts(t *testing.T) {
	cases := []struct {
		in   Inst
		want int
	}{
		{Inst{Op: NOP}, 1},
		{Inst{Op: MOVI}, 1},
		{Inst{Op: STORE}, 1}, // micro-fused
		{Inst{Op: CALL}, 2},
		{Inst{Op: RET}, 2},
		{Inst{Op: CPUID}, 6},
		{Inst{Op: MSROMOP}, 8},
		{Inst{Op: MSROMOP, UopCount: 20}, 20},
		{Inst{Op: RDTSC}, 2},
		{Inst{Op: SYSCALL}, 2},
	}
	for _, tc := range cases {
		if got := tc.in.Uops(); got != tc.want {
			t.Errorf("%v.Uops() = %d, want %d", tc.in.Op, got, tc.want)
		}
	}
}

func TestMicrocoded(t *testing.T) {
	for _, op := range []Op{MSROMOP, CPUID} {
		in := Inst{Op: op}
		if !in.Microcoded() {
			t.Errorf("%v not microcoded", op)
		}
	}
	for _, op := range []Op{NOP, CALL, RET, LOAD} {
		in := Inst{Op: op}
		if in.Microcoded() {
			t.Errorf("%v microcoded", op)
		}
	}
}

func TestBranchClassification(t *testing.T) {
	branches := []Op{JMP, JCC, JMPI, CALL, CALLI, RET, SYSCALL, SYSRET}
	uncond := map[Op]bool{JMP: true, JMPI: true, CALL: true, CALLI: true,
		RET: true, SYSCALL: true, SYSRET: true}
	for _, op := range branches {
		in := Inst{Op: op}
		if !in.IsBranch() {
			t.Errorf("%v not a branch", op)
		}
		if in.IsUncondJump() != uncond[op] {
			t.Errorf("%v.IsUncondJump() = %v", op, in.IsUncondJump())
		}
	}
	for _, op := range []Op{NOP, ADD, LOAD, LFENCE} {
		in := Inst{Op: op}
		if in.IsBranch() || in.IsUncondJump() {
			t.Errorf("%v classified as a branch", op)
		}
	}
}

func TestInstEnd(t *testing.T) {
	in := Inst{Addr: 0x1000, Len: 7}
	if got := in.End(); got != 0x1007 {
		t.Errorf("End = %#x", got)
	}
}

func TestUopBranchSemantics(t *testing.T) {
	// Only the last micro-op of a branch macro-op resolves control flow.
	u0 := Uop{Op: CALL, Index: 0, Count: 2}
	u1 := Uop{Op: CALL, Index: 1, Count: 2}
	if u0.IsBranch() {
		t.Error("CALL push µop classified as branch")
	}
	if !u1.IsBranch() {
		t.Error("CALL jump µop not a branch")
	}
	n := Uop{Op: NOP, Index: 0, Count: 1}
	if n.IsBranch() {
		t.Error("NOP classified as branch")
	}
}

func TestUopFallThrough(t *testing.T) {
	u := Uop{MacroAddr: 0x2000, MacroLen: 5}
	if got := u.FallThrough(); got != 0x2005 {
		t.Errorf("FallThrough = %#x", got)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NOP, Len: 15}, "nop15"},
		{Inst{Op: MOVI, Dst: R1, Imm: 42, HasImm: true}, "movi r1, 42"},
		{Inst{Op: JMP, Imm: 0x100}, "jmp 0x100"},
		{Inst{Op: JCC, Cond: NE, Imm: 0x80}, "jne 0x80"},
		{Inst{Op: LOAD, Dst: R2, Src: R3, Imm: 8}, "load r2, [r3+8]"},
		{Inst{Op: STORE, Dst: R2, Src: R3, Imm: 8}, "store [r3+8], r2"},
		{Inst{Op: ADD, Dst: R1, Src: R2}, "add r1, r2"},
		{Inst{Op: ADD, Dst: R1, Imm: 9, HasImm: true}, "add r1, 9"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

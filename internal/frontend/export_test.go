package frontend

import (
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// MemoGroup is one decoded group of the fetch memo, exposed to the
// external tests.
type MemoGroup struct {
	Entry uint64
	Run   []*isa.Inst // the entry's static run
	Insts []*isa.Inst // the group: a prefix of Run
	Plan  *decode.RegionPlan
	Trace *uopcache.Trace
}

// MemoGroups lists every decoded group in the fetch memo.
func (f *FrontEnd) MemoGroups() []MemoGroup {
	var out []MemoGroup
	for pc, m := range f.memo {
		for i, d := range m.decoded {
			if d.plan != nil {
				out = append(out, MemoGroup{Entry: pc, Run: m.run, Insts: m.run[:i+1], Plan: d.plan, Trace: d.trace})
			}
		}
	}
	return out
}

// Pop removes up to n micro-ops from the IDQ, as the backend's rename
// stage does, and returns copies of them.
func (f *FrontEnd) Pop(n int) []isa.Uop {
	q := f.Peek()
	if n > len(q) {
		n = len(q)
	}
	out := append([]isa.Uop(nil), q[:n]...)
	f.Discard(n)
	return out
}

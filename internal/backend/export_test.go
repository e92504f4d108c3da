package backend

import (
	"fmt"
	"slices"

	"deaduops/internal/isa"
)

// CheckWorklists verifies the scheduler's bookkeeping against a full
// scan of the ROB and an independent rename of it:
//   - the ROB is the seqs [head, seq), at most ROBSize of them, each
//     entry at its own position in the ring;
//   - each unissued entry's waiting count equals its number of not-done
//     producers, and it sits on exactly those producers' consumer lists
//     (every list youngest first; a done entry's list is empty);
//   - act holds exactly the unissued entries with nothing to wait for
//     and the issued, not-done entries already due (or, issued with
//     latency 1, due on the next cycle); the timing wheel holds exactly
//     the other issued, not-done entries, each either on the far list
//     or on the list of its readyAt's bucket (and then due within
//     wheelSize cycles), with busy bits marking the non-empty buckets;
//   - fences and stores mark exactly the not-done LFENCEs and the
//     stores, and no position outside the ROB is marked anywhere;
//   - branches is exactly the completed, unresolved branches in ROB
//     order;
//   - the rename table maps each register (and the flags) to its
//     youngest in-ROB writer.
func (b *Backend) CheckWorklists() error {
	if n := b.seq - b.head; n > uint64(b.cfg.ROBSize) {
		return fmt.Errorf("ROB holds %d entries, size %d", n, b.cfg.ROBSize)
	}
	inWheel, err := b.wheelPositions()
	if err != nil {
		return err
	}
	var regProd [isa.NumRegs]*entry
	var flagProd, prev *entry
	want := map[*entry][]wakeup{}
	var branches []*entry
	due, fences := 0, 0
	for s := b.head; s < b.seq; s++ {
		pos := s % robPositions
		e := &b.ents[pos]
		if e.seq != s {
			return fmt.Errorf("position %d holds seq %d, want %d", pos, e.seq, s)
		}
		waits := 0
		dep := func(p *entry, op int) {
			if p != nil && !p.done {
				want[p] = append(want[p], wakeup(int32(pos+1)<<2|int32(op)))
				waits++
			}
		}
		src1, src2, flags := sources(&e.uop)
		if src1 != isa.NoReg {
			dep(regProd[src1], opSrc1)
		}
		if src2 != isa.NoReg {
			dep(regProd[src2], opSrc2)
		}
		if flags {
			dep(flagProd, opFlags)
		}
		if prev != nil && e.uop.Index > 0 && prev.uop.MacroAddr == e.uop.MacroAddr {
			dep(prev, opChain)
		}
		if e.issued && waits > 0 {
			return fmt.Errorf("seq %d issued with %d producers not done", s, waits)
		}
		if !e.issued && int(e.waiting) != waits {
			return fmt.Errorf("seq %d waits on %d producers, counts %d", s, waits, e.waiting)
		}
		// An issued, not-done entry waits in act once due (or from
		// issue, with latency 1) and on the wheel before.
		inAct, inflight := b.act.has(pos), e.issued && !e.done
		if inflight && inAct {
			due++
			if e.readyAt > b.wheelAt+1 {
				return fmt.Errorf("seq %d (readyAt %d, wheel at %d) in act early", s, e.readyAt, b.wheelAt)
			}
		}
		if inflight && !inAct && e.readyAt <= b.wheelAt {
			return fmt.Errorf("seq %d (readyAt %d, wheel at %d) due but not in act", s, e.readyAt, b.wheelAt)
		}
		if !e.issued && inAct != (waits == 0) {
			return fmt.Errorf("seq %d in act = %v with %d producers not done", s, inAct, waits)
		}
		if e.done && inAct {
			return fmt.Errorf("seq %d done but in act", s)
		}
		if got, want := inWheel[pos], inflight && !inAct; got != want {
			return fmt.Errorf("seq %d (readyAt %d, wheel at %d) in wheel = %v, want %v", s, e.readyAt, b.wheelAt, got, want)
		}
		delete(inWheel, pos)
		if e.uop.Op == isa.LFENCE && !e.done {
			fences++
		}
		if b.fences.has(pos) != (e.uop.Op == isa.LFENCE && !e.done) {
			return fmt.Errorf("seq %d in fences = %v", s, b.fences.has(pos))
		}
		if b.stores.has(pos) != isStore(&e.uop) {
			return fmt.Errorf("seq %d in stores = %v", s, b.stores.has(pos))
		}
		if e.done && !e.resolved && e.uop.IsBranch() {
			branches = append(branches, e)
		}
		if r, ok := e.writesReg(); ok {
			regProd[r] = e
		}
		if e.writesFlags() {
			flagProd = e
		}
		prev = e
	}
	for pos := range inWheel {
		return fmt.Errorf("position %d is in the wheel but not in the ROB", pos)
	}
	if due != b.nDue || fences != b.nFences {
		return fmt.Errorf("nDue = %d, nFences = %d, want %d, %d", b.nDue, b.nFences, due, fences)
	}
	for s := b.head; s < b.seq; s++ {
		e := b.at(s)
		var got []wakeup
		for w := e.consumers; w != 0 && len(got) <= 4*len(b.ents); w = b.ents[w.pos()].next[w.op()] {
			got = append(got, w)
		}
		slices.Reverse(got)
		if !slices.Equal(got, want[e]) {
			return fmt.Errorf("seq %d consumers %v, want %v", s, got, want[e])
		}
	}
	// Every position outside the ROB must be clear in every set.
	for i := uint64(0); i < robPositions; i++ {
		if (i-b.head)%robPositions < b.seq-b.head {
			continue
		}
		for name, set := range map[string]*posSet{"act": &b.act, "fences": &b.fences, "stores": &b.stores} {
			if set.has(i) {
				return fmt.Errorf("position %d outside the ROB is in %s", i, name)
			}
		}
	}
	if !slices.Equal(b.branches, branches) {
		return fmt.Errorf("branches holds %d entries, want %d", len(b.branches), len(branches))
	}
	if b.regProd != regProd {
		return fmt.Errorf("rename table %v, want %v", b.regProd, regProd)
	}
	if b.flagProd != flagProd {
		return fmt.Errorf("flags producer differs from the youngest in-ROB flags writer")
	}
	return nil
}

// wheelPositions walks the timing wheel's bucket lists and the far list,
// checking that no entry is on two lists or twice on one, that a bucket
// entry is due at its bucket's next cycle (readyAt mod wheelSize names
// the bucket, within wheelSize cycles of wheelAt), and that the busy
// bits mark exactly the non-empty buckets, and returns the positions
// found.
func (b *Backend) wheelPositions() (map[uint64]bool, error) {
	in := map[uint64]bool{}
	for k := -1; k < wheelSize; k++ {
		head := b.far
		if k >= 0 {
			head = b.wheel[k]
			if busy := b.wheelBusy&(1<<k) != 0; busy != (head != 0) {
				return nil, fmt.Errorf("wheel bucket %d busy bit %v, head %d", k, busy, head)
			}
		}
		for w := head; w != 0; w = b.ents[w-1].wnext {
			pos := uint64(w - 1)
			e := &b.ents[pos]
			if in[pos] {
				return nil, fmt.Errorf("position %d is on the wheel twice", pos)
			}
			in[pos] = true
			if k >= 0 && (int(e.readyAt%wheelSize) != k || e.readyAt <= b.wheelAt || e.readyAt-b.wheelAt >= wheelSize) {
				return nil, fmt.Errorf("seq %d (readyAt %d, wheel at %d) in bucket %d", e.seq, e.readyAt, b.wheelAt, k)
			}
		}
	}
	return in, nil
}

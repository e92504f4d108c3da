package backend

import "fmt"

// CheckWorklists verifies the scheduler's worklist invariants against
// a full scan of the ROB: pend is exactly the not-done entries and
// stores exactly the stores, both in ROB order; branches is exactly the
// completed, unresolved branches in ROB order; ROB seqs strictly
// increase; the graveyard stays under ROBSize; and the rename table
// maps each entry only from its own destination register.
func (b *Backend) CheckWorklists() error {
	var pend []*entry
	var stores []uint64
	var branches []*entry
	for i, e := range b.rob {
		if i > 0 && b.rob[i-1].seq >= e.seq {
			return fmt.Errorf("rob seq %d at %d follows %d", e.seq, i, b.rob[i-1].seq)
		}
		if !e.done {
			pend = append(pend, e)
		}
		if isStore(&e.uop) {
			stores = append(stores, e.seq)
		}
		if e.done && !e.resolved && e.uop.IsBranch() {
			branches = append(branches, e)
		}
	}
	if err := sameEntries("pend", b.pend, pend); err != nil {
		return err
	}
	if err := sameEntries("branches", b.branches, branches); err != nil {
		return err
	}
	if len(stores) != len(b.stores) {
		return fmt.Errorf("stores holds %d seqs, the ROB %d stores", len(b.stores), len(stores))
	}
	for i := range stores {
		if stores[i] != b.stores[i] {
			return fmt.Errorf("stores[%d] = %d, want %d", i, b.stores[i], stores[i])
		}
	}
	if len(b.grave) >= b.cfg.ROBSize {
		return fmt.Errorf("graveyard holds %d entries, ROB size %d", len(b.grave), b.cfg.ROBSize)
	}
	for r, e := range b.regProd {
		if e == nil {
			continue
		}
		if w, ok := e.writesReg(); !ok || int(w) != r {
			return fmt.Errorf("regProd[%d] maps an entry writing %v", r, w)
		}
	}
	return nil
}

func sameEntries(name string, got, want []*entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s holds %d entries, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] is seq %d, want seq %d", name, i, got[i].seq, want[i].seq)
		}
	}
	return nil
}

// Batch-protocol support: the combined-placement state implements the
// batch half of anneal.Mover. As in package place, the load-bearing
// contract is that Undo restores the state BIT-exactly — cellAt, posOf
// and posCost — because the kernel measures every proposal of a batch by
// applying and undoing it on the batch-start state.
// TestMergeApplyUndoRestoresState pins the round trip down move by move.
package merge

import "math/rand"

// mergeSlot is one recorded batch proposal: a mode and a position pair.
type mergeSlot struct {
	m          int
	posA, posB int32
}

// SetupBatch implements anneal.Mover.
func (st *state) SetupBatch(slots int) {
	st.slots = make([]mergeSlot, slots)
}

// Propose implements anneal.Mover: a move picked by pickMove, recorded
// instead of applied.
func (st *state) Propose(rng *rand.Rand, rlim float64, slot int) bool {
	m, posA, posB, ok := st.pickMove(rng, rlim)
	if !ok {
		return false
	}
	st.slots[slot] = mergeSlot{m, posA, posB}
	return true
}

// Claims implements anneal.Mover: a move's mutation footprint is its
// (mode, position) pair, flattened to mode*nPos+pos. Swaps of different
// modes never touch the same occupancy arrays, so they only claim their
// own mode's slots; within a mode the same-class position-pair argument
// from package place applies, so requeued swaps stay legal.
func (st *state) Claims(slot int, buf []int64) []int64 {
	s := st.slots[slot]
	base := int64(s.m) * int64(st.nPos)
	return append(buf, base+int64(s.posA), base+int64(s.posB))
}

// ApplySlot implements anneal.Mover.
func (st *state) ApplySlot(slot int) float64 {
	s := st.slots[slot]
	return st.applyMove(s.m, s.posA, s.posB)
}

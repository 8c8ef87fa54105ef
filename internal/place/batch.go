// Batch-protocol support: state implements the batch half of
// anneal.Mover, so the kernel proposes fixed-size batches of swaps,
// measures each against the batch-start placement (ApplySlot, then
// Undo), and commits in slot order with position-footprint conflict
// detection.
//
// The load-bearing contract is that Undo restores the state BIT-exactly:
// cellAt, posOf, cellX/cellY, netCost and the large-net boxes. Every
// proposal of a batch is measured on the state the previous proposal's
// Undo left behind, so an inexact restore would shift later deltas and
// with them the seeded trajectory. TestApplyUndoRestoresState pins the
// round trip down move by move.
package place

import "math/rand"

// slotMove is one recorded batch proposal: a position pair to swap.
type slotMove struct {
	posA, posB int
}

// SetupBatch implements anneal.Mover.
func (st *state) SetupBatch(slots int) {
	st.slots = make([]slotMove, slots)
}

// Propose implements anneal.Mover: a range-limited swap picked by
// pickMove, recorded instead of applied.
func (st *state) Propose(rng *rand.Rand, rlim float64, slot int) bool {
	posA, posB, ok := st.pickMove(rng, rlim)
	if !ok {
		return false
	}
	st.slots[slot] = slotMove{posA, posB}
	return true
}

// Claims implements anneal.Mover. A swap's full mutation footprint
// is its two positions: commits with disjoint position pairs move
// disjoint cells, and since every pair is same-class by construction a
// requeued swap stays legal no matter what earlier commits did to its
// occupants. (Net costs of untouched positions can still shift — the
// batch-start delta of a non-conflicting move may be stale — but
// staleness is decided by batch composition alone, so it is part of the
// seeded trajectory.)
func (st *state) Claims(slot int, buf []int64) []int64 {
	s := st.slots[slot]
	return append(buf, int64(s.posA), int64(s.posB))
}

// ApplySlot implements anneal.Mover: apply the recorded swap against
// live state, returning its incremental cost delta and leaving it
// applied for Undo.
func (st *state) ApplySlot(slot int) float64 {
	s := st.slots[slot]
	st.mvA, st.mvB = s.posA, s.posB
	return st.applySwap(s.posA, s.posB)
}

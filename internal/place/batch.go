// Batch-protocol support: state implements the batch half of
// anneal.Mover, so the kernel proposes fixed-size batches of swaps,
// evaluates them against the frozen placement, and commits in slot order
// with position-footprint conflict detection.
//
// The load-bearing contract is EvalSlot ≡ ApplySlot on unchanged state:
// the frozen evaluation must reproduce applySwap's delta BIT-identically
// (same affected-net order, same box-update/rescan decisions, same float
// accumulation order), or accept decisions — and with them whole seeded
// trajectories — would depend on which phase evaluated a move. The
// property tests in batch_test.go pin this equivalence down move by
// move.
package place

import (
	"math"
	"math/rand"
)

// slotMove is one recorded batch proposal: a position pair to swap.
type slotMove struct {
	posA, posB int
}

// evalScratch is the frozen-evaluation scratch: flags dedups the
// affected-net list while remembering HOW each net is touched (bit 1: via
// posA's occupant, bit 2: via posB's occupant — the box simulation must
// replay the same per-cell update sequence applySwap would), nets holds
// the insertion-ordered list.
type evalScratch struct {
	flags []uint8
	nets  []int
}

// SetupBatch implements anneal.Mover.
func (st *state) SetupBatch(slots int) {
	st.slots = make([]slotMove, slots)
	st.scratch = evalScratch{flags: make([]uint8, len(st.p.Nets))}
}

// Propose implements anneal.Mover: the same pick (and rng draw
// sequence) as TryMove, recorded instead of applied.
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
// frozen delta of a non-conflicting move may be stale — but staleness is
// decided by batch composition alone, so it is part of the seeded
// trajectory.)
func (st *state) Claims(slot int, buf []int64) []int64 {
	s := st.slots[slot]
	return append(buf, int64(s.posA), int64(s.posB))
}

// ApplySlot implements anneal.Mover: apply the recorded swap against
// live state, exactly like TryMove, leaving it applied for Undo.
func (st *state) ApplySlot(slot int) float64 {
	s := st.slots[slot]
	st.mvA, st.mvB = s.posA, s.posB
	return st.applySwap(s.posA, s.posB)
}

// EvalSlot implements anneal.Mover: applySwap's cost delta computed
// read-only against the frozen placement. It replays applySwap's exact
// sequence on a simulated view — occupant of posA at posB's coordinates
// and vice versa, one cell "moved" at a time for the box updates — so the
// result matches a real applySwap on this state bit for bit.
func (st *state) EvalSlot(slot int) float64 {
	s := st.slots[slot]
	sc := &st.scratch
	ca, cb := st.cellAt[s.posA], st.cellAt[s.posB]
	ax, ay := st.posX[s.posA], st.posY[s.posA]
	bx, by := st.posX[s.posB], st.posY[s.posB]

	// Affected nets in applySwap's insertion order: ca's nets, then cb's.
	nets := sc.nets[:0]
	flags := sc.flags
	if ca >= 0 {
		for _, ni := range st.netsOf[ca] {
			if flags[ni] == 0 {
				nets = append(nets, ni)
			}
			flags[ni] |= 1
		}
	}
	if cb >= 0 {
		for _, ni := range st.netsOf[cb] {
			if flags[ni] == 0 {
				nets = append(nets, ni)
			}
			flags[ni] |= 2
		}
	}
	delta := 0.0
	for _, ni := range nets {
		f := flags[ni]
		flags[ni] = 0
		var nc float64
		if st.small[ni] {
			nc = st.scanCostWith(ni, ca, bx, by, cb, ax, ay)
		} else {
			// Replay applySwap's box maintenance on a copy: first ca's
			// move (a shrink-rescan here sees ca moved, cb not yet —
			// applySwap moves the cells one at a time), then cb's.
			b := st.boxes[ni]
			if f&1 != 0 {
				if !boxStep(&b, ax, ay, bx, by) {
					b = st.computeBoxWith(ni, ca, bx, by, -1, 0, 0)
				}
			}
			if f&2 != 0 {
				if !boxStep(&b, bx, by, ax, ay) {
					b = st.computeBoxWith(ni, ca, bx, by, cb, ax, ay)
				}
			}
			if b.nMinX == 0 {
				nc = 0
			} else {
				nc = st.wq[ni] * float64((b.maxX-b.minX)+(b.maxY-b.minY))
			}
		}
		delta += nc - st.netCost[ni]
	}
	sc.nets = nets
	return delta
}

// scanCostWith is scanCost with the coordinates of up to two cells
// overridden (pass -1 to disable an override) — the frozen view of a
// small net after the proposed swap. Same loop, same comparison chain.
func (st *state) scanCostWith(ni, ca int, cax, cay int32, cb int, cbx, cby int32) float64 {
	cells := st.p.Nets[ni].Cells
	if len(cells) == 0 {
		return 0
	}
	at := func(c int) (int32, int32) {
		if c == ca {
			return cax, cay
		}
		if c == cb {
			return cbx, cby
		}
		return st.cellX[c], st.cellY[c]
	}
	minX, minY := at(cells[0])
	maxX, maxY := minX, minY
	for _, c := range cells[1:] {
		x, y := at(c)
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	return st.wq[ni] * float64((maxX-minX)+(maxY-minY))
}

// computeBoxWith is computeBox with the coordinates of up to two cells
// overridden (pass -1 to disable an override) — the frozen-view rescan
// fallback when a simulated box update vacates an edge.
func (st *state) computeBoxWith(ni, c1 int, x1, y1 int32, c2 int, x2, y2 int32) netBox {
	cells := st.p.Nets[ni].Cells
	if len(cells) == 0 {
		return netBox{}
	}
	var b netBox
	b.minX, b.minY = math.MaxInt32, math.MaxInt32
	b.maxX, b.maxY = math.MinInt32, math.MinInt32
	for _, c := range cells {
		xx, yy := st.cellX[c], st.cellY[c]
		if c == c1 {
			xx, yy = x1, y1
		} else if c == c2 {
			xx, yy = x2, y2
		}
		switch {
		case xx < b.minX:
			b.minX, b.nMinX = xx, 1
		case xx == b.minX:
			b.nMinX++
		}
		switch {
		case xx > b.maxX:
			b.maxX, b.nMaxX = xx, 1
		case xx == b.maxX:
			b.nMaxX++
		}
		switch {
		case yy < b.minY:
			b.minY, b.nMinY = yy, 1
		case yy == b.minY:
			b.nMinY++
		}
		switch {
		case yy > b.maxY:
			b.maxY, b.nMaxY = yy, 1
		case yy == b.maxY:
			b.nMaxY++
		}
	}
	return b
}

// Batch-protocol support: the combined-placement state implements the
// batch half of anneal.Mover. As in package place, the load-bearing
// contract is EvalSlot ≡ ApplySlot on unchanged state: the frozen
// evaluation replays applyMove's exact affected-position order and
// per-position cost computation through a view of the arrays with the
// proposed swap applied, so the delta matches bit for bit.
package merge

import (
	"math"
	"math/rand"

	"repro/internal/place"
)

// mergeSlot is one recorded batch proposal: a mode and a position pair.
type mergeSlot struct {
	m          int
	posA, posB int32
}

// mergeScratch is the frozen evaluation's affected-position dedup. It is
// kept apart from the state's move scratch because Undo reads affBuf: an
// evaluation must not clobber the list of the move it may revert.
type mergeScratch struct {
	affSeen []bool
	affBuf  []int32
}

// SetupBatch implements anneal.Mover.
func (st *state) SetupBatch(slots int) {
	st.slots = make([]mergeSlot, slots)
	st.scratch = mergeScratch{affSeen: make([]bool, st.nPos)}
}

// Propose implements anneal.Mover: the same pick (and rng draw
// sequence) as TryMove, recorded instead of applied.
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

// EvalSlot implements anneal.Mover: applyMove's delta computed
// read-only against the frozen state. The affected-position list is built
// pre-swap from the live arrays (exactly as applyMove builds it), then
// each position is re-costed through a view with the swap applied.
func (st *state) EvalSlot(slot int) float64 {
	s := st.slots[slot]
	sc := &st.scratch
	ca, cb := st.cellAt[s.m][s.posA], st.cellAt[s.m][s.posB]

	affected := sc.affBuf[:0]
	add := func(p int32) {
		if !sc.affSeen[p] {
			sc.affSeen[p] = true
			affected = append(affected, p)
		}
	}
	if ca >= 0 {
		st.affected(s.m, ca, add)
	}
	if cb >= 0 {
		st.affected(s.m, cb, add)
	}
	add(s.posA)
	add(s.posB)
	delta := 0.0
	for _, p := range affected {
		sc.affSeen[p] = false
		delta += st.costAtView(p, s.m, s.posA, s.posB, ca, cb) - st.posCost[p]
	}
	sc.affBuf = affected
	return delta
}

// costAtView is costAt evaluated through a view of the occupancy arrays
// with the mode-vm swap of vA and vB applied: cellAt[vm][vA] reads as cb,
// cellAt[vm][vB] as ca, and the positions of ca/cb read swapped. Same
// iteration order, same dedup (through costAt's own scratch), same min/max
// accumulation as costAt.
func (st *state) costAtView(p int32, vm int, vA, vB, ca, cb int32) float64 {
	touched := st.sinkBuf[:0]
	hasDriver := false
	for m, mi := range st.modes {
		cell := st.cellAt[m][p]
		if m == vm {
			if p == vA {
				cell = cb
			} else if p == vB {
				cell = ca
			}
		}
		if cell < 0 || len(mi.sinksOf[cell]) == 0 {
			continue
		}
		hasDriver = true
		for _, s := range mi.sinksOf[cell] {
			sp := st.posOf[m][s]
			if m == vm {
				if s == ca {
					sp = vB
				} else if s == cb {
					sp = vA
				}
			}
			if !st.sinkSeen[sp] {
				st.sinkSeen[sp] = true
				touched = append(touched, sp)
			}
		}
	}
	st.sinkBuf = touched
	if !hasDriver || len(touched) == 0 {
		for _, sp := range touched {
			st.sinkSeen[sp] = false
		}
		return 0
	}
	if st.objective == EdgeMatch {
		n := float64(len(touched))
		for _, sp := range touched {
			st.sinkSeen[sp] = false
		}
		return n
	}
	minX, minY := math.MaxInt32, math.MaxInt32
	maxX, maxY := math.MinInt32, math.MinInt32
	upd := func(x, y int) {
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	nTerm := 1
	{
		x, y := st.xy(p)
		upd(x, y)
	}
	for _, sp := range touched {
		st.sinkSeen[sp] = false
		x, y := st.xy(sp)
		upd(x, y)
		nTerm++
	}
	return place.QFactor(nTerm) * float64((maxX-minX)+(maxY-minY))
}

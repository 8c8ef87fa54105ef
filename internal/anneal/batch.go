package anneal

import (
	"math"
	"math/rand"
)

// batchMoves is the number of move proposals per batch. Like the router's
// connection batches it is a FIXED constant: batch composition decides
// which proposals see which batch-start state, so it fixes the rng draw
// order, the canonical commit order and every conflict/requeue decision —
// the whole seeded trajectory. Changing it moves every placement result.
const batchMoves = 64

// StartSeedStride separates the derived seeds of multi-start anneals:
// start i of a run seeded S anneals with seed S + i*StartSeedStride.
// Large and prime so the strided seed sequences of nearby base seeds
// (callers commonly use S, S+1, ... for related problems) do not collide.
const StartSeedStride = 1_000_003

// RunStats summarises one annealing run.
type RunStats struct {
	// Moves counts evaluated (non-degenerate) proposals; Accepted the
	// committed ones.
	Moves    int
	Accepted int
	// Requeued counts batch commits whose footprint overlapped an earlier
	// commit of the same batch and were therefore re-evaluated serially
	// against live state.
	Requeued int
	// Batches counts move batches.
	Batches int
}

// BestStart picks the winner of a multi-start anneal: the index of the
// lowest cost, ties broken towards the lowest seed. The pick depends only
// on the (cost, seed) pairs, never on the order the starts ran in.
func BestStart(costs []float64, seeds []int64) int {
	best := 0
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[best] || (costs[i] == costs[best] && seeds[i] < seeds[best]) {
			best = i
		}
	}
	return best
}

// MultiStart anneals starts runs one after another (0 or 1 is a single
// run), run i seeded seed + i*StartSeedStride, and returns the state
// BestStart picks. newRun builds a run's initial state from its rng and
// sizes its schedule. Only the best state so far is held. A run cut
// short by its Config.Ctx ends the loop with the context's error.
func MultiStart[M Mover](seed int64, starts int, newRun func(rng *rand.Rand) (M, Config, error)) (M, error) {
	var best M
	bestCost, bestSeed := 0.0, int64(0)
	for i := 0; i < max(starts, 1); i++ {
		s := seed + int64(i)*StartSeedStride
		rng := rand.New(rand.NewSource(s))
		mv, cfg, err := newRun(rng)
		if err != nil {
			return best, err
		}
		Run(mv, cfg, rng)
		if cfg.canceled() {
			return best, cfg.Ctx.Err()
		}
		if c := mv.Cost(); i == 0 || BestStart([]float64{bestCost, c}, []int64{bestSeed, s}) == 1 {
			best, bestCost, bestSeed = mv, c, s
		}
	}
	return best, nil
}

// runBatched is the annealing loop over the batch protocol, mirroring the
// router's commit protocol: per batch, each slot in turn draws its
// proposal and acceptance uniform (so the rng sequence depends on no
// accept decision) and is measured against the batch-start state —
// applied for its delta, then undone, which restores that state exactly;
// commits then apply in slot order. A commit whose claims overlap an earlier accepted commit of
// the same batch is REQUEUED: it is re-evaluated against live state via
// ApplySlot and decided with its pre-drawn uniform — in-batch, so a batch
// where every proposal conflicts still makes progress one commit at a
// time (no livelock, no starvation). Non-conflicting commits decide on
// the batch-start delta and only then apply, which also keeps the
// maintained incremental costs exact: every state mutation goes through
// ApplySlot against live state.
func runBatched(mv Mover, cfg Config, sch *Schedule, rng *rand.Rand, span int) RunStats {
	var stats RunStats
	var (
		ok      [batchMoves]bool
		u       [batchMoves]float64
		delta   [batchMoves]float64
		claimed []int64
		clBuf   []int64
	)
	for {
		for m := 0; m < sch.Moves; {
			if cfg.canceled() {
				return stats
			}
			n := batchMoves
			if rem := sch.Moves - m; rem < n {
				n = rem
			}
			m += n
			stats.Batches++

			// Propose phase: fixed rng order. The acceptance uniform is
			// drawn per proposal up front so the decision in the commit
			// phase consumes no rng; measuring the delta draws none.
			// Undo restores the batch-start state for the next slot.
			for s := 0; s < n; s++ {
				ok[s] = mv.Propose(rng, sch.RLim, s)
				if ok[s] {
					u[s] = rng.Float64()
					delta[s] = mv.ApplySlot(s)
					mv.Undo()
				}
			}
			// Commit phase: canonical slot order.
			claimed = claimed[:0]
			for s := 0; s < n; s++ {
				if !ok[s] {
					continue
				}
				stats.Moves++
				clBuf = mv.Claims(s, clBuf[:0])
				conflict := false
				for _, c := range clBuf {
					for _, p := range claimed {
						if p == c {
							conflict = true
							break
						}
					}
					if conflict {
						break
					}
				}
				if conflict {
					// Requeue: an earlier commit touched this move's
					// footprint, so the batch-start delta is stale — apply
					// against live state for the true delta and decide
					// with the pre-drawn uniform.
					stats.Requeued++
					d := mv.ApplySlot(s)
					if d <= 0 || u[s] < math.Exp(-d/sch.T) {
						claimed = append(claimed, clBuf...)
						sch.Record(true)
						stats.Accepted++
					} else {
						mv.Undo()
						sch.Record(false)
					}
				} else {
					if d := delta[s]; d <= 0 || u[s] < math.Exp(-d/sch.T) {
						mv.ApplySlot(s)
						claimed = append(claimed, clBuf...)
						sch.Record(true)
						stats.Accepted++
					} else {
						sch.Record(false)
					}
				}
			}
			if cfg.AfterBatch != nil {
				cfg.AfterBatch()
			}
		}
		if !sch.Next(mv.Cost()/float64(cfg.Nets), span) {
			return stats
		}
	}
}

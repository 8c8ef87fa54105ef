package anneal

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// batchMoves is the number of move proposals per batch of the parallel
// protocol. Like the router's connection batches it is a FIXED constant —
// NEVER derived from the worker count: batch composition, the rng draw
// order, the canonical commit order and the conflict/requeue decisions
// must all be functions of the seed alone, so that the same seed yields
// byte-identical trajectories at 1, 2 or 8 workers. Workers only change
// who evaluates a slot, never what is decided.
const batchMoves = 64

// StartSeedStride separates the derived seeds of multi-start anneals:
// start i of a run seeded S anneals with seed S + i*StartSeedStride.
// Large and prime so the strided seed sequences of nearby base seeds
// (callers commonly use S, S+1, ... for related problems) do not collide.
const StartSeedStride = 1_000_003

// BatchMover extends Mover with the batched parallel-move protocol:
// proposals are drawn serially (fixed rng order), evaluated concurrently
// against frozen cost state, and committed serially in slot order with
// footprint-based conflict detection. Implementations must guarantee:
//
//   - Propose records a proposal without touching shared state;
//   - EvalSlot is read-only against the current state and writes only the
//     given worker's scratch (it runs concurrently with other workers);
//   - EvalSlot returns exactly the delta ApplySlot would return on an
//     unchanged state (same affected-set order, same float operations) —
//     property-tested by both movers;
//   - Claims returns the move's full mutation footprint: two proposals
//     whose claims are disjoint must commute.
type BatchMover interface {
	Mover
	// SetupBatch sizes the mover's proposal slots and per-worker
	// evaluation scratch. Called once per Run, before the first batch.
	SetupBatch(workers, slots int)
	// Propose draws a move for the given slot within the range limit,
	// recording it in the slot without mutating state; ok is false when
	// the proposal is degenerate (no-op target, class mismatch).
	Propose(rng *rand.Rand, rlim float64, slot int) bool
	// Claims appends the slot's footprint keys to buf and returns it.
	Claims(slot int, buf []int64) []int64
	// EvalSlot returns the slot's cost delta, evaluated read-only against
	// the current (frozen) state using worker w's scratch.
	EvalSlot(slot, w int) float64
	// ApplySlot applies the slot's proposal to live state — exactly like
	// TryMove, returning the incremental delta and leaving the move
	// applied for Undo to revert.
	ApplySlot(slot int) float64
}

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
	// Batches counts parallel batches (zero on the legacy serial path).
	Batches int
}

// Pool is a bounded worker pool for the batched evaluation phase. The
// calling goroutine participates as worker 0, so a 1-worker pool spawns
// no goroutines at all; a pool may be shared across the runs of a
// multi-start anneal. Close releases the spawned workers.
type Pool struct {
	workers int
	jobs    []chan poolJob // one channel per spawned worker: every Run executes exactly once on every worker index
}

type poolJob struct {
	fn func(w int)
	wg *sync.WaitGroup
}

// NewPool returns a pool of the given worker count (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	for w := 1; w < workers; w++ {
		ch := make(chan poolJob)
		p.jobs = append(p.jobs, ch)
		go func(w int, ch chan poolJob) {
			for j := range ch {
				j.fn(w)
				j.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn once per worker (fn receives the worker index) and
// returns when every invocation has finished.
func (p *Pool) Run(fn func(w int)) {
	if len(p.jobs) == 0 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- poolJob{fn: fn, wg: &wg}
	}
	fn(0)
	wg.Wait()
}

// Close stops the pool's spawned workers (a no-op for 1-worker pools).
func (p *Pool) Close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// BestStart picks the winner of a multi-start anneal: the index of the
// lowest cost, ties broken towards the lowest seed. The pick depends only
// on the (cost, seed) pairs — never on the order starts completed in —
// so concurrent and sequential multi-starts agree.
func BestStart(costs []float64, seeds []int64) int {
	best := 0
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[best] || (costs[i] == costs[best] && seeds[i] < seeds[best]) {
			best = i
		}
	}
	return best
}

// runBatched is the annealing loop over the batched parallel-move
// protocol, mirroring the router's commit protocol: per batch, proposals
// and their acceptance uniforms are drawn serially in slot order (the rng
// sequence is fixed up front); evaluation runs on the pool against state
// frozen for the whole phase; commits then apply serially in slot order.
// A commit whose claims overlap an earlier accepted commit of the same
// batch is REQUEUED: it is re-evaluated against live state via ApplySlot
// and decided with its pre-drawn uniform — in-batch and serial, so a
// batch where every proposal conflicts still makes progress one commit at
// a time (no livelock, no starvation). Non-conflicting commits decide on
// the frozen delta and only then apply, which also keeps the maintained
// incremental costs exact: every state mutation goes through ApplySlot
// against live state.
func runBatched(mv BatchMover, cfg Config, sch *Schedule, rng *rand.Rand, span int) RunStats {
	var stats RunStats
	pool := cfg.Pool
	if pool == nil && cfg.Workers > 1 {
		pool = NewPool(cfg.Workers)
		defer pool.Close()
	}
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	mv.SetupBatch(workers, batchMoves)

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

			// Propose phase: serial, fixed rng order. The acceptance
			// uniform is drawn per proposal up front (the serial kernel
			// draws it lazily for uphill moves only) so the decision in
			// the commit phase consumes no rng.
			for s := 0; s < n; s++ {
				ok[s] = mv.Propose(rng, sch.RLim, s)
				if ok[s] {
					u[s] = rng.Float64()
				}
			}
			// Evaluation phase: workers pull slots off a shared counter
			// and evaluate read-only against the frozen state, writing
			// only their own scratch and their slot's delta.
			if pool != nil {
				var next atomic.Int32
				pool.Run(func(w int) {
					for {
						s := int(next.Add(1)) - 1
						if s >= n {
							return
						}
						if ok[s] {
							delta[s] = mv.EvalSlot(s, w)
						}
					}
				})
			} else {
				for s := 0; s < n; s++ {
					if ok[s] {
						delta[s] = mv.EvalSlot(s, 0)
					}
				}
			}
			// Commit phase: serial, canonical slot order.
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
					// footprint, so the frozen delta is stale — apply
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

// Package anneal is the shared simulated-annealing kernel behind every
// placement-shaped optimisation in the repo: per-mode MDR placement and
// TPlace refinement (package place) and the paper's multi-mode combined
// placement (package merge). The kernel owns everything the three users
// used to duplicate — initial-temperature estimation from probed move
// deltas, the VPR-style adaptive schedule, the move/accept loop and the
// range-limit adaptation — and is parameterised over a Mover interface
// supplying the problem-specific parts: proposing a move, applying it
// with an incremental cost delta, and undoing it.
//
// Moves run under the batch protocol (see batch.go): fixed-size proposal
// batches are drawn serially, each proposal's delta is taken against the
// batch-start state (apply, then undo), and the batch is committed in
// canonical slot order with footprint-based conflict detection. The
// protocol defines the trajectory, so every golden result in the repo is
// a function of the seed alone.
//
// Hot-path contract for Mover implementations:
//
//   - ApplySlot must evaluate the delta *incrementally* (touch only the
//     nets/positions the move affects) and leave the move applied; Undo
//     must restore every piece of mutable state BIT-exactly, because the
//     kernel measures each batch proposal by applying and undoing it and
//     the next proposal must see the batch-start state. After any
//     accepted/rejected sequence the maintained total must equal a
//     from-scratch recompute exactly (both users have property tests
//     asserting this and the apply/undo round trip).
//   - No per-move allocation: affected-set deduplication and undo
//     snapshots live in scratch buffers owned by the Mover.
//   - Cost deltas must be accumulated over a deterministically ordered
//     (never map-ordered) affected set: float addition is not
//     associative, so an unordered sum would make seeded runs
//     irreproducible.
//
// The kernel itself draws from the caller's rng in a fixed order (one
// Propose per probe, then per batch one Propose and one Float64 per
// slot), so a seeded run is reproducible by construction.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Mover is the problem-specific side of the annealing loop. Implementations
// must guarantee:
//
//   - Propose records a proposal without touching state;
//   - ApplySlot followed by Undo leaves every piece of mutable state
//     bit-identical to before — property-tested by both movers;
//   - Claims returns the move's full mutation footprint: two proposals
//     whose claims are disjoint must commute.
type Mover interface {
	// Undo reverts the last ApplySlot.
	Undo()
	// Cost returns the current total cost from the Mover's incremental
	// bookkeeping (called once per temperature round, not per move).
	Cost() float64
	// SetupBatch sizes the mover's proposal slots. Called once per Run,
	// before the first proposal.
	SetupBatch(slots int)
	// Propose draws a move for the given slot within the range limit,
	// recording it in the slot without mutating state; ok is false when
	// the proposal is degenerate (no-op target, class mismatch).
	Propose(rng *rand.Rand, rlim float64, slot int) bool
	// Claims appends the slot's footprint keys to buf and returns it.
	Claims(slot int, buf []int64) []int64
	// ApplySlot applies the slot's proposal to live state, returning the
	// incremental delta and leaving the move applied for Undo to revert.
	ApplySlot(slot int) float64
}

// QuenchTempFraction scales the probed starting temperature of a
// WarmStart run: the warm-start quench temperature.
const QuenchTempFraction = 0.02

// Config sizes the schedule for one annealing run.
type Config struct {
	// Effort scales moves per temperature; 1.0 ≈ VPR inner_num 10.
	Effort float64
	// Span is the device span (width + height): the initial range limit
	// and the probe rlim.
	Span int
	// Cells is the number of movable objects (schedule sizing and probe
	// count). Zero disables annealing.
	Cells int
	// Nets is the number of cost-bearing nets; the stop criterion
	// compares the temperature against the cost per net. Zero disables
	// annealing (no net, nothing to optimise).
	Nets int
	// Refine starts from an existing good solution: the usual starting
	// temperature is scaled by RefineTempFraction and the range limit
	// opens at a quarter span, so the seed is improved, not destroyed.
	Refine bool
	// RefineTempFraction scales the probed starting temperature when
	// Refine is set (default 0.1).
	RefineTempFraction float64
	// WarmStart quenches an already-good seed (an ECO placement
	// transfer): the starting temperature is scaled by
	// QuenchTempFraction and the range limit opens at an eighth of the
	// span — colder and tighter than Refine, so the baseline is perturbed
	// only where the edit demands it. When both Refine and WarmStart are
	// set, WarmStart wins.
	WarmStart bool
	// AfterBatch, when non-nil, is called after each batch's commit phase
	// (test hook: the incremental-vs-recompute property tests audit the
	// mover's books after every commit/requeue cycle).
	AfterBatch func()
	// Obs, when non-nil, receives the run's RunStats as mm_anneal_*
	// metrics when Run returns. Observed only at the run boundary — the
	// move loop never touches it — so instrumentation can neither slow
	// the hot path nor perturb results. Never hashed into artifact keys.
	Obs *obs.Registry
	// Ctx, when non-nil, cuts the run short: it is checked once per batch,
	// and a cancelled run returns with the state as the last whole batch
	// left it. Run reports no error — callers that cancel check Ctx.Err()
	// and discard the state. Never hashed into artifact keys.
	Ctx context.Context
}

// canceled reports whether the run's context has been cancelled.
func (c *Config) canceled() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// observe records one finished run's RunStats into the registry.
func observe(reg *obs.Registry, s *RunStats) {
	if reg == nil {
		return
	}
	reg.Counter("mm_anneal_runs_total", "Annealing runs.").Inc()
	reg.Histogram("mm_anneal_moves",
		"Proposed moves per annealing run.", obs.WorkBuckets).Observe(float64(s.Moves))
	reg.Histogram("mm_anneal_accepted",
		"Accepted moves per annealing run.", obs.WorkBuckets).Observe(float64(s.Accepted))
	reg.Histogram("mm_anneal_requeued",
		"Batch moves requeued after footprint conflicts, per annealing run.",
		obs.WorkBuckets).Observe(float64(s.Requeued))
	reg.Histogram("mm_anneal_batches",
		"Move batches per annealing run.", obs.WorkBuckets).
		Observe(float64(s.Batches))
}

// Run anneals the Mover's state in place: probe initial temperature,
// then rounds of Moves attempts with Metropolis acceptance until the
// schedule says the temperature is cold relative to the cost per net.
func Run(mv Mover, cfg Config, rng *rand.Rand) RunStats {
	if cfg.Cells <= 0 || cfg.Nets <= 0 {
		return RunStats{}
	}
	span := cfg.Span
	mv.SetupBatch(batchMoves)

	// Estimate the initial temperature from probed (and undone) move
	// deltas: T0 = 20 σ (VPR).
	var deltas []float64
	for i := 0; i < cfg.Cells; i++ {
		if !mv.Propose(rng, float64(span), 0) {
			continue
		}
		deltas = append(deltas, mv.ApplySlot(0))
		mv.Undo()
	}
	sch := NewSchedule(Stddev(deltas), span, cfg.Cells, cfg.Effort)
	switch {
	case cfg.WarmStart:
		sch.T *= QuenchTempFraction
		sch.RLim = float64(span) / 8
		if sch.RLim < 1 {
			sch.RLim = 1
		}
		// A quench refines an already-good seed with local moves only;
		// the full VPR per-round budget is sized for untangling a random
		// start and would spend most of it re-proposing rejected uphill
		// moves at the cold temperature.
		sch.Moves /= 4
		if sch.Moves < 64 {
			sch.Moves = 64
		}
	case cfg.Refine:
		frac := cfg.RefineTempFraction
		if frac <= 0 {
			frac = 0.1
		}
		sch.T *= frac
		sch.RLim = float64(span) / 4
		if sch.RLim < 1 {
			sch.RLim = 1
		}
	}

	stats := runBatched(mv, cfg, sch, rng, span)
	observe(cfg.Obs, &stats)
	return stats
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Stddev returns the standard deviation of xs (1 for an empty slice, so
// a degenerate probe still yields a usable starting temperature).
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / float64(len(xs)))
}

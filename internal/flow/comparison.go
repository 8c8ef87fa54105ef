package flow

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/route"
)

// Comparison bundles the three implementations of one multi-mode circuit
// on a shared reconfigurable region: the MDR baseline and the DCS flow
// under both combined-placement objectives.
type Comparison struct {
	Region    *Region
	MDR       *MDRResult
	EdgeMatch *DCSResult
	WireLen   *DCSResult
	// Delta is set when a baseline was requested: either the delta path
	// ran (UsedBaseline) or it fell back to a cold compile
	// (BaselineMiss). Nil for ordinary cold compiles.
	Delta *DeltaStats
}

// RouteWork sums the router work of the comparison: every MDR mode's
// route and both TRoutes.
func (c *Comparison) RouteWork() route.Summary {
	var sum route.Summary
	for _, m := range c.MDR.PerMode {
		sum.Add(m.Routing.Stats)
	}
	sum.Add(c.EdgeMatch.TRoute.Route.Stats)
	sum.Add(c.WireLen.TRoute.Route.Stats)
	return sum
}

// RunComparison sizes a shared region and implements the modes under MDR,
// DCS-EdgeMatch and DCS-WireLength. The Tunable circuit can need a few
// more tracks than the single-mode minimum (its placement compromises
// between modes), so the common region is widened until all three flows
// route — keeping MDR and DCS on identical hardware for fair bit
// accounting. When widening alone does not converge (input-pin congestion
// of an N-mode merge does not scale with channel width — a CLB has K pins
// at any W), the last attempts re-anneal with a perturbed seed instead;
// runs that succeed within the widening attempts are unaffected. Each
// attempt is a pure function of its index (attemptCfg), so the attempts
// run as a ladder: once an attempt's routing has stalled for half its
// budget, the next one starts alongside it on a core no other compile in
// the process is using, the lowest success is kept and the rest are
// cancelled; the result is byte-identical to trying them one by one.
// Attempts of one seed differ only in channel width, which no placement
// reads, so the ladder places once per seed: the first attempt to need a
// combined placement and its TPlace refinement computes them, and every
// other attempt of that seed reuses them. When a core is idle, a helper
// computes the first seed's placements while the region is sized (see
// helper.go); the result is the same.
//
// With Config.Baseline set, the compile first attempts the delta path
// (see delta.go): reuse the baseline's region, transfer its placements
// through the structural diff and warm-start routing. Every delta
// failure — baseline missing, corrupt, or no longer fitting the edited
// modes — falls back to this cold path, so a baseline never makes a
// compilable input fail.
func RunComparison(name string, modes []*lutnet.Circuit, cfg Config) (*Comparison, error) {
	cfg = cfg.filled()
	cores.acquire()
	defer cores.release()
	if cfg.Baseline != "" {
		cmp, err := runComparisonDelta(name, modes, cfg)
		if err == nil {
			return cmp, nil
		}
		if cerr := cfg.ctxErr(); cerr != nil {
			return nil, cerr // cancelled, not a baseline miss
		}
		if cfg.Cache != nil {
			cfg.Cache.baselineMisses.Add(1)
		}
		cmp, err = runComparisonCold(name, modes, cfg)
		if err == nil {
			cmp.Delta = &DeltaStats{BaselineMiss: true}
		}
		return cmp, err
	}
	return runComparisonCold(name, modes, cfg)
}

// The cold retry ladder: attempt 0 runs on the sized region, attempts
// 1..ladderWidenings each widen the channel by two more tracks, and the
// remaining attempts re-anneal on the widest region.
const (
	ladderAttempts  = 10
	ladderWidenings = 6
)

// attemptCfg returns the configuration and channel width of attempt k of
// the cold retry ladder, given the filled configuration and the sized
// channel width w0. Every attempt is a pure function of k — that is what
// lets RunComparison run them out of order — and equals the state the
// original serial loop reached cumulatively: +2 tracks per failed
// attempt up to attempt ladderWidenings, then per further attempt the
// seed advanced by 7919 and the router's iteration budget doubled for
// these near-capacity instances.
func attemptCfg(cfg Config, w0, k int) (Config, int) {
	if k <= ladderWidenings {
		return cfg, w0 + 2*k
	}
	r := k - ladderWidenings
	cfg.Seed += 7919 * int64(r)
	cfg.RouteOpts.MaxIters <<= r
	return cfg, w0 + 2*ladderWidenings
}

func runComparisonCold(name string, modes []*lutnet.Circuit, cfg Config) (*Comparison, error) {
	places := newMemo[dcsKey, *dcsPlacement](0, nil)
	defer startHelper(cfg, prefillCold(name, modes, places))()
	region, err := SizeRegion(modes, cfg)
	if err != nil {
		return nil, err
	}
	cmp, err := runColdLadder(cfg, region.Arch.W, func(acfg Config, w int) (*Comparison, error) {
		return runAttempt(name, modes, region, acfg, w, places)
	})
	if err != nil {
		if cerr := cfg.ctxErr(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	cmp.Region.MinW = region.MinW
	return cmp, nil
}

// prefillCold returns the cold path's placement helper. Attempts
// 0..ladderWidenings share the compile's seed, so it places both
// objectives under that seed, on the logic array sizing will choose:
// sizing only picks the channel width, which no placement reads.
func prefillCold(name string, modes []*lutnet.Circuit, places *memo[dcsKey, *dcsPlacement]) func(hcfg Config) {
	return func(hcfg Config) {
		side := regionSide(modes, hcfg.RelaxArea)
		if side == 0 {
			return // sizing fails
		}
		a := arch.New(side, side, minSearchW)
		for _, obj := range dcsObjectives {
			places.prefill(hcfg.Ctx, dcsKey{hcfg.Seed, obj}, func(staged func()) (*dcsPlacement, error) {
				return placeColdDCS(name, modes, a, obj, hcfg, staged)
			})
		}
	}
}

// runColdLadder runs the cold retry ladder of run from channel width w0,
// counting each started attempt's outcome and adopting the traces of
// those not cancelled. A cancelled cfg.Ctx returns the context's error.
func runColdLadder[T any](cfg Config, w0 int, run func(acfg Config, w int) (T, error)) (T, error) {
	traces := make([]*obs.Trace, ladderAttempts)
	v, outcomes, err := ladder(cfg.context(), ladderAttempts, &cores, rung(cfg, w0, traces, run))
	var attempts *obs.CounterVec
	if cfg.Obs != nil {
		attempts = cfg.Obs.CounterVec("mm_flow_attempts_total",
			"Cold compile retry attempts by outcome: won, failed, or canceled (discarded after a lower attempt won).",
			"outcome")
	}
	for k, o := range outcomes {
		if attempts != nil {
			attempts.With(o).Inc()
		}
		if o != outcomeCanceled {
			cfg.Trace.Adopt(traces[k], "attempt", strconv.Itoa(k), "outcome", o)
		}
	}
	return v, err
}

// rung makes attempt k of a cold ladder from channel width w0 call run
// on attemptCfg(cfg, w0, k), set to stop with the attempt's context, to
// doubt it once a route stalls, and to record into traces[k].
func rung[T any](cfg Config, w0 int, traces []*obs.Trace, run func(acfg Config, w int) (T, error)) func(ctx context.Context, k int, doubt func()) (T, error) {
	return func(ctx context.Context, k int, doubt func()) (T, error) {
		acfg, w := attemptCfg(cfg, w0, k)
		acfg.Ctx, acfg.RouteOpts.Ctx = ctx, ctx
		// An attempt is in doubt once one of its routes has spent half its
		// iteration budget and is still stalled in full rip-ups. Every
		// failed attempt gets there; a winning one rarely does. Starting the
		// next attempt from that point hides half the time a failure takes,
		// while wasting little work when the attempt succeeds after all.
		half := acfg.RouteOpts.MaxIters / 2
		acfg.RouteOpts.OnStall = func(iter int) {
			if iter >= half {
				doubt()
			}
		}
		acfg.Trace = cfg.Trace.Fork()
		traces[k] = acfg.Trace
		return run(acfg, w)
	}
}

// runAttempt is one attempt of the cold ladder: MDR and both DCS flows on
// the sized region widened to channel width w. The DCS placements come
// from places, so only the first attempt of a seed merges and runs
// TPlace (or waits for the helper to); every attempt routes. The context
// is checked between the flows, so a cancelled attempt does not start
// the next one.
func runAttempt(name string, modes []*lutnet.Circuit, sized *Region, cfg Config, w int, places *memo[dcsKey, *dcsPlacement]) (*Comparison, error) {
	region := sized
	if w != sized.Arch.W {
		region = cfg.NewRegion(sized.Arch.Width, w)
	}
	cmp := &Comparison{Region: region}
	var err error
	if cmp.MDR, err = RunMDR(modes, region, cfg); err != nil {
		return nil, err
	}
	for _, obj := range dcsObjectives {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		p, _, err := placeShared(cfg, places, dcsKey{cfg.Seed, obj}, obj, func() (*dcsPlacement, error) {
			return placeColdDCS(name, modes, region.Arch, obj, cfg, func() {})
		})
		if err != nil {
			return nil, err
		}
		dcs, err := routeDCS(p, region, obj.String(), cfg)
		if err != nil {
			return nil, err
		}
		if obj == merge.EdgeMatch {
			cmp.EdgeMatch = dcs
		} else {
			cmp.WireLen = dcs
		}
	}
	return cmp, nil
}

// dcsObjectives are the DCS flow's combined-placement objectives, in
// the order a comparison implements them.
var dcsObjectives = [...]merge.Objective{merge.EdgeMatch, merge.WireLength}

// dcsKey identifies a DCS placement of one cold ladder, shared by its
// attempts. The attempts of a seed differ only in channel width, which
// neither the combined placement nor TPlace reads, so a DCS placement is
// a function of (seed, objective) alone: the first attempt to need one
// computes it (unless the helper has), and any attempt needing it
// meanwhile waits for that computation. The memo lives for one
// runComparisonCold call.
type dcsKey struct {
	seed int64
	obj  merge.Objective
}

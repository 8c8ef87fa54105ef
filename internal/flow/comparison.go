package flow

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/obs"
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
	region, err := SizeRegion(modes, cfg)
	if err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	traces := make([]*obs.Trace, ladderAttempts)
	// An attempt is in doubt once one of its routes has spent half its
	// iteration budget and is still stalled in full rip-ups. Every failed
	// attempt gets there; a winning one rarely does. Starting the next
	// attempt from that point hides half the time a failure takes, while
	// wasting little work when the attempt succeeds after all.
	cmp, outcomes, err := ladder(ctx, ladderAttempts, &cores, func(ctx context.Context, k int, doubt func()) (*Comparison, error) {
		acfg, w := attemptCfg(cfg, region.Arch.W, k)
		acfg.Ctx = ctx
		half := acfg.RouteOpts.MaxIters / 2
		acfg.RouteOpts.OnStall = func(iter int) {
			if iter >= half {
				doubt()
			}
		}
		acfg.Trace = cfg.Trace.Fork()
		traces[k] = acfg.Trace
		return runAttempt(name, modes, region, acfg, w)
	})
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
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	cmp.Region.MinW = region.MinW
	return cmp, nil
}

// runAttempt is one attempt of the cold ladder: MDR and both DCS flows on
// the sized region widened to channel width w. The context is checked
// between the flows, so a cancelled attempt does not start the next one.
func runAttempt(name string, modes []*lutnet.Circuit, sized *Region, cfg Config, w int) (*Comparison, error) {
	region := sized
	if w != sized.Arch.W {
		region = cfg.NewRegion(sized.Arch.Width, w)
	}
	cmp := &Comparison{Region: region}
	var err error
	if cmp.MDR, err = RunMDR(modes, region, cfg); err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cmp.EdgeMatch, err = RunDCS(name, modes, region, merge.EdgeMatch, cfg); err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cmp.WireLen, err = RunDCS(name, modes, region, merge.WireLength, cfg); err != nil {
		return nil, err
	}
	return cmp, nil
}

package flow

import (
	"fmt"

	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/tunable"
)

// RunDCSIdentity runs the DCS back-end on the naive index-based merge of
// the paper's Fig. 3 (no combined placement): block i of every mode shares
// Tunable LUT i, pad i shares pad group i. Used as an ablation baseline
// showing the value of the combined-placement merge heuristics. The
// result's Merge holds the identity assignment and its Tunable circuit
// but no sites: TPlace places the circuit from scratch.
//
// It runs on the cold retry ladder from the given region, the attempts
// of a seed sharing one TPlace, and returns the region of the lowest
// attempt that routed. Otherwise the error names the widths tried. An
// identity merge with more pad groups than the region has pad sites
// fails at once, before any rung.
func RunDCSIdentity(name string, modes []*lutnet.Circuit, region *Region, cfg Config) (*DCSResult, *Region, error) {
	cfg = cfg.filled()
	asg := tunable.Identity(modes)
	// The identity merge gives inputs and outputs pad groups of their
	// own, so it can need more pads than any one mode, and than the
	// region has; no channel width changes that.
	if pads := asg.NumPadGroups; pads > region.Arch.NumIOSites() {
		return nil, nil, fmt.Errorf("flow: %s: identity merge does not fit the region: %d pad groups for %d pad sites",
			name, pads, region.Arch.NumIOSites())
	}
	tc, err := tunable.Merge(name, modes, asg)
	if err != nil {
		return nil, nil, err
	}
	mres := &merge.Result{Assignment: asg, Tunable: tc}
	cores.acquire()
	defer cores.release()
	type routed struct {
		dcs    *DCSResult
		region *Region
	}
	places := newMemo[int64, *dcsPlacement](0, nil)
	w0 := region.Arch.W
	r, err := runColdLadder(cfg, w0, func(acfg Config, w int) (routed, error) {
		p, _, err := places.get(acfg.Ctx, acfg.Seed, func() (*dcsPlacement, error) {
			return tplaceDCS(mres, region.Arch, acfg)
		})
		if err != nil {
			return routed{}, err
		}
		wide := region
		if w != w0 {
			wide = acfg.NewRegion(region.Arch.Width, w)
			wide.MinW = region.MinW
		}
		dcs, err := routeDCS(p, wide, "identity", acfg)
		return routed{dcs, wide}, err
	})
	if err != nil {
		if cerr := cfg.ctxErr(); cerr != nil {
			return nil, nil, cerr
		}
		return nil, nil, fmt.Errorf("flow: %s: identity merge routes on no channel width %d-%d (%d attempts): %w",
			name, w0, w0+2*ladderWidenings, ladderAttempts, err)
	}
	return r.dcs, r.region, nil
}

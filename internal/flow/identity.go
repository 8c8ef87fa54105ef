package flow

import (
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
func RunDCSIdentity(name string, modes []*lutnet.Circuit, region *Region, cfg Config) (*DCSResult, error) {
	cfg = cfg.filled()
	asg := tunable.Identity(modes)
	tc, err := tunable.Merge(name, modes, asg)
	if err != nil {
		return nil, err
	}
	p, err := tplaceDCS(&merge.Result{Assignment: asg, Tunable: tc}, region.Arch, cfg)
	if err != nil {
		return nil, err
	}
	return routeDCS(p, region, "identity", cfg)
}

package flow

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/codec"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/place"
	"repro/internal/route"
)

// The delta path is the ECO flow: instead of sizing a region and placing
// and routing every mode from scratch, a compile against a baseline
// artifact reuses the baseline's region, matches every mode's cells
// against the baseline version with a structural diff, transfers the
// baseline placements onto the matched portion, quenches the annealers at
// the warm-start temperature, and seeds the routers from the baseline
// trees so only nets touching moved or edited cells renegotiate. An edit
// of LUT contents only keeps the baseline's combined placements as they
// are (see placeDCSDelta).
//
// Delta results are deterministic (same baseline + same edit + same seed
// give byte-identical results) but are a different
// trajectory than a cold compile of the same input — the QoR difference
// is bounded by the equivalence suite in delta_test.go. Any problem with
// the baseline — missing from the store, corrupt, a region no cold
// compile would choose, wrong mode count, sites that no longer fit —
// degrades to a cold compile, counted in
// Stats.BaselineMisses; a baseline can never turn a compilable input
// into a failure.

// DeltaStats reports what a delta compile reused from its baseline.
type DeltaStats struct {
	// UsedBaseline is set when the delta path produced the result;
	// BaselineMiss when a baseline was requested but the compile fell
	// back to the cold path.
	UsedBaseline bool `json:"used_baseline"`
	BaselineMiss bool `json:"baseline_miss,omitempty"`
	// ReusedModes counts MDR mode placements inherited verbatim
	// (hash-identical circuits).
	ReusedModes int `json:"reused_modes,omitempty"`
	// PlaceTransfers counts placements taken over from the baseline:
	// annealer runs seeded by transfer (edited MDR modes, and the two
	// combined placements of a structural edit) plus combined placements
	// a content-only edit inherits without annealing.
	PlaceTransfers int `json:"place_transfers,omitempty"`
	// WarmRouteNets counts nets seeded intact from baseline trees across
	// every route of the compile.
	WarmRouteNets int `json:"warm_route_nets,omitempty"`
}

// transferred counts one placement taken over from the baseline, in d
// and in the cache's stats.
func (d *DeltaStats) transferred(c *Cache) {
	d.PlaceTransfers++
	if c != nil {
		c.placeTransfers.Add(1)
	}
}

// loadBaseline resolves Config.Baseline to a decoded artifact.
func loadBaseline(cfg Config) (*Baseline, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("flow: baseline %q requested without a cache", cfg.Baseline)
	}
	key, err := codec.ParseHash(cfg.Baseline)
	if err != nil {
		return nil, err
	}
	data, ok := cfg.Cache.GetArtifact(key)
	if !ok {
		return nil, fmt.Errorf("flow: baseline %s not in store", cfg.Baseline)
	}
	return DecodeBaseline(data, cfg)
}

// runComparisonDelta implements the modes against a baseline. Any error
// is a reason to fall back to the cold path, never a final failure.
func runComparisonDelta(name string, modes []*lutnet.Circuit, cfg Config) (*Comparison, error) {
	base, err := loadBaseline(cfg)
	if err != nil {
		return nil, err
	}
	if len(base.Modes) != len(modes) {
		return nil, fmt.Errorf("flow: baseline has %d modes, request has %d", len(base.Modes), len(modes))
	}

	// Diff each edited mode against its baseline version once; both the
	// MDR and the DCS paths consume the same match.
	diffs := make([]*codec.CircuitDiff, len(modes))
	oldCs := make([]*lutnet.Circuit, len(modes))
	contentOnly := true
	for m, c := range modes {
		oldC := base.Modes[m].Circuit
		if codec.HashCircuit(c) == codec.HashCircuit(oldC) {
			continue // unchanged: nil diff means identity
		}
		oldCs[m] = oldC
		diffs[m] = codec.DiffCircuits(oldC, c)
		contentOnly = contentOnly && codec.ContentOnly(oldC, c)
	}

	// The DCS place phase reads the region's logic array only, so the
	// helper computes both objectives' while the MDR modes route.
	a := arch.New(base.Side, base.Side, base.W)
	places := newMemo[merge.Objective, *deltaPlacement](0, nil)
	phase := func(obj merge.Objective, cfg Config, staged func()) (*deltaPlacement, error) {
		return placeDCSDelta(name, modes, a, obj, cfg, base, oldCs, diffs, contentOnly, staged)
	}
	defer startHelper(cfg, func(hcfg Config) {
		for _, obj := range dcsObjectives {
			places.prefill(hcfg.Ctx, obj, func(staged func()) (*deltaPlacement, error) {
				return phase(obj, hcfg, staged)
			})
		}
	})()

	region := cfg.NewRegion(base.Side, base.W)
	region.MinW = base.MinW
	delta := &DeltaStats{UsedBaseline: true}
	cmp := &Comparison{Region: region, Delta: delta}
	if cmp.MDR, err = runMDRDelta(modes, region, cfg, base, oldCs, diffs, delta); err != nil {
		return nil, err
	}
	if cmp.EdgeMatch, err = runDCSDelta(name, modes, region, merge.EdgeMatch, cfg, places, phase, delta); err != nil {
		return nil, err
	}
	if cmp.WireLen, err = runDCSDelta(name, modes, region, merge.WireLength, cfg, places, phase, delta); err != nil {
		return nil, err
	}
	return cmp, nil
}

// matchVector maps the new circuit's cells onto baseline cell indices in
// the place.FromCircuit encoding (blocks, PIs, POs), -1 for unmatched.
func matchVector(d *codec.CircuitDiff, oldC, newC *lutnet.Circuit) []int {
	oldB, oldP := len(oldC.Blocks), len(oldC.PINames)
	match := make([]int, 0, len(newC.Blocks)+len(newC.PINames)+len(newC.POs))
	for b := range newC.Blocks {
		match = append(match, d.CellMap[b])
	}
	for i := range newC.PINames {
		if j := d.PIMap[i]; j >= 0 {
			match = append(match, oldB+j)
		} else {
			match = append(match, -1)
		}
	}
	for o := range newC.POs {
		if j := d.POMap[o]; j >= 0 {
			match = append(match, oldB+oldP+j)
		} else {
			match = append(match, -1)
		}
	}
	return match
}

// identityMatch is the match vector of an unchanged mode.
func identityMatch(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// mapNetName translates a new net's canonical name ("blk<i>"/"pi<i>",
// new indices) into the baseline's name space through the diff, or ""
// when the driver has no baseline counterpart.
func mapNetName(name string, d *codec.CircuitDiff) string {
	if s := strings.TrimPrefix(name, "blk"); s != name {
		i, err := strconv.Atoi(s)
		if err != nil || i < 0 || i >= len(d.CellMap) || d.CellMap[i] < 0 {
			return ""
		}
		return "blk" + strconv.Itoa(d.CellMap[i])
	}
	if s := strings.TrimPrefix(name, "pi"); s != name {
		i, err := strconv.Atoi(s)
		if err != nil || i < 0 || i >= len(d.PIMap) || d.PIMap[i] < 0 {
			return ""
		}
		return "pi" + strconv.Itoa(d.PIMap[i])
	}
	return ""
}

// warmTreesFor pairs each new net with its baseline tree by canonical
// name (mapped through the diff for edited modes). Nets without a
// counterpart stay nil and route cold; trees that no longer reach their
// sinks are discarded by the router itself.
func warmTreesFor(nets []route.Net, bm *BaselineMode, d *codec.CircuitDiff) []*route.Tree {
	byName := make(map[string]*route.Tree, len(bm.Nets))
	for i := range bm.Nets {
		byName[bm.Nets[i].Name] = &route.Tree{Edges: bm.Nets[i].Edges}
	}
	warm := make([]*route.Tree, len(nets))
	for i := range nets {
		name := nets[i].Name
		if d != nil {
			if name = mapNetName(name, d); name == "" {
				continue
			}
		}
		warm[i] = byName[name]
	}
	return warm
}

// runMDRDelta is RunMDR with warm starts: unchanged modes inherit the
// baseline placement verbatim, edited modes transfer the matched portion
// and quench, and every route is seeded from the baseline trees.
func runMDRDelta(modes []*lutnet.Circuit, region *Region, cfg Config, base *Baseline, oldCs []*lutnet.Circuit, diffs []*codec.CircuitDiff, delta *DeltaStats) (*MDRResult, error) {
	impls := make([]ModeImpl, 0, len(modes))
	for mi, c := range modes {
		bm := &base.Modes[mi]
		cc := place.CellsOf(c)
		numCells := cc.NumBlk + cc.NumPI + cc.NumPO
		sp := cfg.Trace.Start("place", "mode", strconv.Itoa(mi), "path", "delta")
		var pl *place.Placement
		if diffs[mi] == nil {
			if len(bm.Sites) != numCells {
				return nil, fmt.Errorf("flow: baseline mode %d has %d sites for %d cells", mi, len(bm.Sites), numCells)
			}
			pl = &place.Placement{SiteOf: bm.Sites, Cost: bm.Cost}
			delta.ReusedModes++
		} else {
			prob, _ := place.FromCircuit(c)
			match := matchVector(diffs[mi], oldCs[mi], c)
			init, _, err := place.TransferInit(prob, region.Arch, match, bm.Sites)
			if err != nil {
				return nil, fmt.Errorf("flow: delta MDR mode %d: %w", mi, err)
			}
			pl, err = place.Place(prob, region.Arch, place.Options{
				Seed: cfg.Seed + int64(mi), Effort: cfg.PlaceEffort,
				Init: init, WarmStart: true,
				Obs: cfg.Obs, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("flow: delta MDR mode %d: %w", mi, err)
			}
			delta.transferred(cfg.Cache)
		}
		sp.End()
		sp = cfg.Trace.Start("route", "mode", strconv.Itoa(mi), "path", "delta")
		impl, err := implementMode(region, c, cc, pl, cfg.RouteOpts, func(nets []route.Net) []*route.Tree {
			return warmTreesFor(nets, bm, diffs[mi])
		})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("flow: delta MDR mode %d: %w", mi, err)
		}
		delta.WarmRouteNets += impl.Routing.Stats.WarmNets
		if cfg.Cache != nil {
			cfg.Cache.warmRouteNets.Add(uint64(impl.Routing.Stats.WarmNets))
		}
		impls = append(impls, impl)
	}
	return aggregateMDR(region, impls), nil
}

// deltaPlacement is the place phase of one objective's delta DCS flow
// (see placeDCSDelta).
type deltaPlacement struct {
	// p is the TPlace-refined placement, nil when TPlace failed.
	p *dcsPlacement
	// path says how the combined placement was seeded from the
	// baseline: "inherit" or "delta", as its merge span labels it.
	path string
}

// runDCSDelta is RunDCS seeded from the baseline combined placement: the
// place phase of obj from places (computed by phase, see placeDCSDelta),
// then TRoute, which runs cold. An error of the place phase fails the
// delta compile. When TPlace or TRoute fails, the objective is
// re-annealed cold on the baseline region.
func runDCSDelta(name string, modes []*lutnet.Circuit, region *Region, obj merge.Objective, cfg Config, places *memo[merge.Objective, *deltaPlacement], phase func(merge.Objective, Config, func()) (*deltaPlacement, error), delta *DeltaStats) (*DCSResult, error) {
	dp, sp, err := placeShared(cfg, places, obj, obj, func() (*deltaPlacement, error) {
		return phase(obj, cfg, func() {})
	})
	if err != nil {
		return nil, err
	}
	sp.SetLabel("path", dp.path)
	delta.transferred(cfg.Cache)
	if dp.p != nil {
		if res, err := routeDCS(dp.p, region, obj.String(), cfg); err == nil {
			return res, nil
		}
	}
	// The quench can leave the tunable circuit unroutable on congested
	// instances: the combined annealer is blind to pin congestion, and a
	// placement nudged off the baseline can demand the same input pin
	// twice in ways no channel width fixes. An inherited placement is the
	// one the baseline routed, so it fails only when the baseline was
	// placed or routed under another seed or iteration budget. Re-anneal
	// just this objective from scratch on the baseline region — the MDR
	// savings and the other objective's delta are kept, and the retry is
	// deterministic like everything else here.
	return RunDCS(name, modes, region, obj, cfg)
}

// placeDCSDelta is the place phase of obj's delta DCS flow on the
// baseline's logic array a. A content-only edit (every mode equal to its
// baseline version but for LUT contents, see codec.ContentOnly) inherits
// the baseline combined placement as it is: its grouping, sites and
// TPlace problem are the baseline's, so TPlace refines it exactly as the
// cold flow does and TRoute reproduces the baseline's trees. Any other
// edit transfers every mode's cells through the diff onto the baseline's
// per-mode sites and quenches the combined annealer from there; TPlace
// then refines at the quench temperature. staged is called between the
// combined placement and TPlace. A TPlace failure is not an error of the
// phase (the objective falls back to RunDCS) unless cfg.Ctx was
// cancelled.
func placeDCSDelta(name string, modes []*lutnet.Circuit, a arch.Arch, obj merge.Objective, cfg Config, base *Baseline, oldCs []*lutnet.Circuit, diffs []*codec.CircuitDiff, contentOnly bool, staged func()) (*deltaPlacement, error) {
	bm := &base.Merges[obj]
	if len(bm.ModeSites) != len(modes) {
		return nil, fmt.Errorf("flow: baseline %s merge has %d modes, request has %d", obj, len(bm.ModeSites), len(modes))
	}
	if contentOnly {
		sp := cfg.Trace.Start("merge", "objective", obj.String(), "path", "inherit")
		mres, err := merge.FromModeSites(name, modes, a, obj, bm.ModeSites)
		sp.End()
		// Sites that no longer fit the modes or the region fall through
		// to the transfer path, which re-places what does not fit.
		if err == nil {
			staged()
			return refineDCSDelta(mres, a, "inherit", cfg)
		}
	}
	inits := make([][]arch.Site, len(modes))
	for m, c := range modes {
		prob, cc := place.FromCircuit(c)
		var match []int
		if diffs[m] == nil {
			numCells := cc.NumBlk + cc.NumPI + cc.NumPO
			if len(bm.ModeSites[m]) != numCells {
				return nil, fmt.Errorf("flow: baseline %s merge mode %d has %d sites for %d cells", obj, m, len(bm.ModeSites[m]), numCells)
			}
			match = identityMatch(numCells)
		} else {
			match = matchVector(diffs[m], oldCs[m], c)
		}
		init, _, err := place.TransferInit(prob, a, match, bm.ModeSites[m])
		if err != nil {
			return nil, fmt.Errorf("flow: delta %s merge mode %d: %w", obj, m, err)
		}
		inits[m] = init
	}
	sp := cfg.Trace.Start("merge", "objective", obj.String(), "path", "delta")
	mres, err := merge.CombinedPlace(name, modes, a, merge.Options{
		Seed: cfg.Seed, Effort: cfg.PlaceEffort, Objective: obj,
		Init: inits, WarmStart: true,
		Obs: cfg.Obs, Ctx: cfg.Ctx,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	staged()
	// TPlace normally refines the combined placement at the refinement
	// temperature; in the delta path the topology it refines was already
	// TPlace-refined in the baseline, so open at the warm-start quench
	// temperature instead (a caller-set fraction still wins).
	if cfg.RefineTempFraction == 0 {
		cfg.RefineTempFraction = anneal.QuenchTempFraction
	}
	return refineDCSDelta(mres, a, "delta", cfg)
}

// refineDCSDelta runs TPlace on a delta combined placement seeded by
// path.
func refineDCSDelta(mres *merge.Result, a arch.Arch, path string, cfg Config) (*deltaPlacement, error) {
	p, err := tplaceDCS(mres, a, cfg)
	if err != nil {
		if cerr := cfg.ctxErr(); cerr != nil {
			return nil, cerr
		}
		p = nil
	}
	return &deltaPlacement{p: p, path: path}, nil
}

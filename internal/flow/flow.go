// Package flow orchestrates the two tool flows the paper compares on a
// shared reconfigurable region:
//
//   - MDR (Modular Dynamic Reconfiguration): every mode is placed and
//     routed separately; a mode switch rewrites the entire region.
//   - DCS (the paper's flow): the modes are merged by combined placement
//     into a Tunable circuit, placed (TPlace) and routed (TRoute) once; a
//     mode switch rewrites only the parameterised bits (plus, by the
//     paper's conservative convention, all LUT bits).
//
// The package also performs region sizing (area and channel width 20%
// above minimum, as in the paper) and computes every metric the evaluation
// section reports: reconfiguration bits, the Diff analysis bar, and
// per-mode wirelength.
package flow

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/synth"
	"repro/internal/techmap"
	"repro/internal/troute"
)

// Config tunes the flows.
type Config struct {
	K           int     // LUT size (default 4)
	RelaxArea   float64 // region area relaxation (default 1.2)
	RelaxW      float64 // channel-width relaxation (default 1.2)
	PlaceEffort float64 // SA effort (default 1.0)
	// RefineTempFraction scales the annealing kernel's starting
	// temperature when TPlace refines the combined placement
	// (0 = the kernel default, 0.1).
	RefineTempFraction float64
	Seed               int64
	RouteOpts          route.Options
	// PlaceStarts runs every placement anneal as this many independently
	// seeded starts, keeping the best by the deterministic (cost, seed)
	// tiebreak. It CHANGES results, so it is part of placement,
	// group-result and compile-request artifact keys.
	// 0 or 1 is a single start.
	PlaceStarts int
	// Baseline, when non-empty, is the hex store key of an eco-baseline
	// artifact from a prior compile (see BuildBaseline): RunComparison
	// then skips region sizing, transfers the baseline placements onto
	// the edited modes through a structural diff, and warm-starts the
	// routers from the baseline trees. Delta results are deterministic
	// but follow a different trajectory than a cold compile, so the key
	// is part of every artifact identity; a missing or unusable baseline
	// degrades to a cold compile (counted in Stats.BaselineMisses).
	Baseline string
	// Cache, when non-nil, memoizes routing-resource graphs and placements
	// across calls in memory (see Cache); its persistent artifact store, if
	// any, holds whole results only. Results are identical with or without
	// it; sharing one Cache between concurrent jobs deduplicates their work.
	Cache *Cache
	// Obs, when non-nil, receives route and anneal work metrics (it is
	// propagated into RouteOpts and every placement call). Trace, when
	// non-nil, records one span per flow stage (synth, size, graph,
	// place, route, merge, tplace, troute). Both are observability-only:
	// they never feed back into any algorithm and are excluded from every
	// artifact key. A Trace must not be shared by concurrent compiles —
	// the flow's stages are serial within one compile, which is what the
	// span nesting relies on (RunComparison's concurrent retry attempts
	// each record into a forked trace, adopted when they are joined).
	Obs   *obs.Registry
	Trace *obs.Trace
	// Ctx, when non-nil, cancels the compile. It is propagated into
	// RouteOpts and every uncached placement and checked only at
	// boundaries no trajectory depends on — negotiation iterations,
	// anneal batches, and between the flows of a comparison attempt — so
	// it can stop a compile but never change what a finished one
	// returns. Cached per-mode placements run to completion, because
	// their result is shared. Like Obs and Trace it is excluded from
	// every artifact key.
	Ctx context.Context
}

// context returns the compile context, or a background context when
// there is none.
func (c Config) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// ctxErr returns the compile context's error, nil without a context.
func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c Config) filled() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.RelaxArea == 0 {
		c.RelaxArea = 1.2
	}
	if c.RelaxW == 0 {
		c.RelaxW = 1.2
	}
	if c.PlaceEffort == 0 {
		c.PlaceEffort = 1.0
	}
	// Gentler PathFinder settings than the package defaults: Tunable
	// circuits of dissimilar modes route close to the region's capacity,
	// where a slowly growing present-congestion factor converges and a
	// fast one oscillates.
	if c.RouteOpts.MaxIters == 0 {
		c.RouteOpts.MaxIters = 90
	}
	if c.RouteOpts.PresFacMult == 0 {
		c.RouteOpts.PresFacMult = 1.4
	}
	if c.RouteOpts.Obs == nil {
		c.RouteOpts.Obs = c.Obs
	}
	if c.Ctx != nil {
		c.RouteOpts.Ctx = c.Ctx
	}
	return c
}

// MapModes runs the front-end (synthesis clean-up plus technology mapping)
// on every mode description.
func MapModes(modes []*netlist.Netlist, cfg Config) ([]*lutnet.Circuit, error) {
	cfg = cfg.filled()
	defer cfg.Trace.Start("synth").End()
	out := make([]*lutnet.Circuit, len(modes))
	for i, n := range modes {
		opt := synth.Optimize(n)
		c, err := techmap.Map(opt, cfg.K)
		if err != nil {
			return nil, fmt.Errorf("flow: mode %q: %w", n.Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// Region is the shared reconfigurable region: architecture plus its
// routing-resource graph.
type Region struct {
	Arch  arch.Arch
	Graph *arch.Graph
	// MinW is the minimum routable channel width found during sizing.
	MinW int
}

// SizeRegion chooses the region: the square logic array fits the biggest
// mode with 20% area slack, and the channel width is 20% above the minimum
// width at which every mode routes individually.
func SizeRegion(modes []*lutnet.Circuit, cfg Config) (*Region, error) {
	cfg = cfg.filled()
	defer cfg.Trace.Start("size").End()
	side := regionSide(modes, cfg.RelaxArea)
	if side == 0 {
		return nil, fmt.Errorf("flow: empty modes")
	}

	// Find the minimum channel width by bisection: W is routable when every
	// mode places and routes on the region. Placements do not depend on the
	// channel width, so with a Cache every probe after the first reuses the
	// same per-mode placements and only the routing is redone.
	routable := func(w int) bool {
		g := buildGraph(cfg, side, w)
		a := g.Arch
		for mi, c := range modes {
			pl, cc, err := placeCircuit(c, a, cfg, int64(mi))
			if err != nil {
				return false
			}
			nets, err := route.NetsForPlacedCircuit(g, c, cc, pl)
			if err != nil {
				return false
			}
			ro := cfg.RouteOpts
			ro.MaxIters = 24
			if _, err := route.Route(g, nets, ro); err != nil {
				return false
			}
		}
		return true
	}
	lo, hi := minSearchW, 2*minSearchW
	for !routable(hi) {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		lo = hi + 1
		hi *= 2
		if hi > maxSearchW {
			return nil, fmt.Errorf("flow: unroutable even at channel width %d", hi)
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if routable(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// A cancelled probe reads as unroutable, so a cancelled bisection
	// must not be trusted.
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	minW := hi
	region := cfg.NewRegion(side, relaxedW(minW, cfg.RelaxW))
	region.MinW = minW
	return region, nil
}

// SizeRegion searches channel widths in [minSearchW, maxSearchW].
const (
	minSearchW = 2
	maxSearchW = 128
)

// regionSide is the logic-array side SizeRegion chooses for modes: the
// smallest square that fits the biggest mode's blocks and I/O, its area
// relaxed by relaxArea. It is 0 when no mode has a block.
func regionSide(modes []*lutnet.Circuit, relaxArea float64) int {
	maxBlocks, maxIO := 0, 0
	for _, c := range modes {
		maxBlocks = max(maxBlocks, c.NumBlocks())
		maxIO = max(maxIO, c.NumPIs()+len(c.POs))
	}
	if maxBlocks == 0 {
		return 0
	}
	return arch.MinGridForBlocks(maxBlocks, maxIO, relaxArea)
}

// relaxedW is the channel width SizeRegion chooses for the minimum
// routable width minW: relaxW above it, rounded up.
func relaxedW(minW int, relaxW float64) int { return int(float64(minW)*relaxW + 0.999) }

// buildGraph builds (or, with a Cache, fetches) the RRG for a side×side
// region of channel width w.
func buildGraph(cfg Config, side, w int) *arch.Graph {
	defer cfg.Trace.Start("graph",
		"side", strconv.Itoa(side), "w", strconv.Itoa(w)).End()
	if cfg.Cache != nil {
		return cfg.Cache.graph(side, w)
	}
	return arch.BuildGraph(arch.New(side, side, w))
}

// NewRegion constructs a region with an explicit logic-array side and
// channel width. The region wrapper is always fresh (its MinW field is
// per-call state), but with a Cache the graph inside is built once per
// geometry and shared — so widen-and-retry loops probing the same
// geometry reuse the graph. Config{}.NewRegion builds a standalone region.
func (c Config) NewRegion(side, w int) *Region {
	g := buildGraph(c, side, w)
	return &Region{Arch: g.Arch, Graph: g, MinW: w}
}

func placeCircuit(c *lutnet.Circuit, a arch.Arch, cfg Config, seedOffset int64) (*place.Placement, place.CircuitCells, error) {
	if cfg.Cache != nil {
		return cfg.Cache.placement(c, a.Width, a.Height, cfg.Seed+seedOffset, cfg.PlaceEffort, cfg.PlaceStarts, cfg.Obs)
	}
	prob, cc := place.FromCircuit(c)
	pl, err := place.Place(prob, a, place.Options{
		Seed: cfg.Seed + seedOffset, Effort: cfg.PlaceEffort,
		Starts: cfg.PlaceStarts, Obs: cfg.Obs, Ctx: cfg.Ctx,
	})
	if err != nil {
		return nil, cc, err
	}
	return pl, cc, nil
}

// ModeImpl is one mode's separate implementation under MDR. It retains
// everything needed to assemble the mode's full configuration afterwards
// (bitstream.Assemble, e.g. for the Diff switch-cost matrix).
type ModeImpl struct {
	Placement *place.Placement
	Cells     place.CircuitCells
	Nets      []route.Net
	Routing   *route.Result
	WireLen   int
	UsedBits  map[int32]bool
}

// MDRResult aggregates the Modular Dynamic Reconfiguration baseline.
type MDRResult struct {
	PerMode []ModeImpl
	// ReconfigBits: a mode switch rewrites the whole region.
	ReconfigBits int
	// DiffRoutingBits counts routing bits whose configured value differs
	// between modes (the paper's RegExp-Diff analysis bar).
	DiffRoutingBits int
	// AvgWire is the average per-mode wire usage.
	AvgWire float64
}

// implementMode routes one placed mode and assembles its ModeImpl. warm,
// when non-nil, maps the derived nets to baseline routing trees (the
// delta path's seed); a nil warm routes cold.
func implementMode(region *Region, c *lutnet.Circuit, cc place.CircuitCells, pl *place.Placement, ro route.Options, warm func([]route.Net) []*route.Tree) (ModeImpl, error) {
	nets, err := route.NetsForPlacedCircuit(region.Graph, c, cc, pl)
	if err != nil {
		return ModeImpl{}, err
	}
	if warm != nil {
		ro.Warm = warm(nets)
	}
	rr, err := route.Route(region.Graph, nets, ro)
	if err != nil {
		return ModeImpl{}, err
	}
	return ModeImpl{
		Placement: pl, Cells: cc, Nets: nets, Routing: rr,
		WireLen:  route.TotalWireLength(region.Graph, rr),
		UsedBits: route.UsedBits(region.Graph, rr.Trees),
	}, nil
}

// aggregateMDR folds per-mode implementations into the MDR metrics.
func aggregateMDR(region *Region, impls []ModeImpl) *MDRResult {
	res := &MDRResult{ReconfigBits: region.Graph.TotalConfigBits(), PerMode: impls}
	for i := range impls {
		res.AvgWire += float64(impls[i].WireLen)
	}
	res.AvgWire /= float64(len(impls))
	res.DiffRoutingBits = len(res.DiffBits())
	return res
}

// DiffBits returns, in ascending order, the routing bits on in some but
// not all modes: the bits a Diff reconfiguration rewrites. It is
// computed from PerMode on every call.
func (r *MDRResult) DiffBits() []int32 {
	on := map[int32]int{} // bit -> number of modes where on
	for i := range r.PerMode {
		for b := range r.PerMode[i].UsedBits {
			on[b]++
		}
	}
	var diff []int32
	for b, n := range on {
		if n != len(r.PerMode) {
			diff = append(diff, b)
		}
	}
	slices.Sort(diff)
	return diff
}

// RunMDR implements every mode separately in the region.
func RunMDR(modes []*lutnet.Circuit, region *Region, cfg Config) (*MDRResult, error) {
	cfg = cfg.filled()
	impls := make([]ModeImpl, 0, len(modes))
	for mi, c := range modes {
		sp := cfg.Trace.Start("place", "mode", strconv.Itoa(mi))
		pl, cc, err := placeCircuit(c, region.Arch, cfg, int64(mi))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("flow: MDR mode %d: %w", mi, err)
		}
		sp = cfg.Trace.Start("route", "mode", strconv.Itoa(mi))
		impl, err := implementMode(region, c, cc, pl, cfg.RouteOpts, nil)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("flow: MDR mode %d: %w", mi, err)
		}
		impls = append(impls, impl)
	}
	return aggregateMDR(region, impls), nil
}

// DiffReconfigBits is the Diff accounting: all LUT bits plus only the
// differing routing bits.
func (r *MDRResult) DiffReconfigBits(a arch.Arch) int {
	return a.TotalLUTBits() + r.DiffRoutingBits
}

// DCSResult aggregates the paper's flow.
type DCSResult struct {
	Merge  *merge.Result
	TRoute *troute.Result
	// ReconfigBits: all LUT bits + parameterised routing bits.
	ReconfigBits int
	// AvgWire is the average per-mode wire usage of the Tunable circuit.
	AvgWire float64
	// TPlaceCost is the placement cost of the Tunable circuit.
	TPlaceCost float64
}

// RunDCS merges the modes with combined placement (using the given
// objective), places the Tunable circuit with TPlace and routes it with
// TRoute.
func RunDCS(name string, modes []*lutnet.Circuit, region *Region, obj merge.Objective, cfg Config) (*DCSResult, error) {
	cfg = cfg.filled()
	p, err := placeColdDCS(name, modes, region.Arch, obj, cfg, func() {})
	if err != nil {
		return nil, err
	}
	return routeDCS(p, region, obj.String(), cfg)
}

// dcsPlacement is the place phase of the DCS flow: a combined placement
// and its TPlace refinement. Neither reads the channel width, so one
// placement serves every width of the same logic array (see
// TestCombinedPlaceIgnoresChannelWidth and
// TestPlacementIgnoresChannelWidth).
type dcsPlacement struct {
	merge              *merge.Result
	lutSites, padSites []arch.Site
	cost               float64
}

// placeColdDCS is the cold DCS place phase of the modes under obj: the
// combined placement, then — after calling staged — its TPlace
// refinement.
func placeColdDCS(name string, modes []*lutnet.Circuit, a arch.Arch, obj merge.Objective, cfg Config, staged func()) (*dcsPlacement, error) {
	mres, err := placeDCS(name, modes, a, obj, cfg)
	if err != nil {
		return nil, err
	}
	staged()
	return tplaceDCS(mres, a, cfg)
}

// placeDCS is the cold combined placement of the modes under obj.
func placeDCS(name string, modes []*lutnet.Circuit, a arch.Arch, obj merge.Objective, cfg Config) (*merge.Result, error) {
	defer cfg.Trace.Start("merge", "objective", obj.String()).End()
	return merge.CombinedPlace(name, modes, a, merge.Options{
		Seed: cfg.Seed, Effort: cfg.PlaceEffort, Objective: obj,
		Starts: cfg.PlaceStarts, Obs: cfg.Obs, Ctx: cfg.Ctx,
	})
}

// tplaceDCS refines a combined placement of the Tunable circuit with
// TPlace (the topology is fixed now) — shared by the cold path and the
// delta path, which differ only in how the combined placement was seeded.
func tplaceDCS(mres *merge.Result, a arch.Arch, cfg Config) (*dcsPlacement, error) {
	defer cfg.Trace.Start("tplace").End()
	lutSites, padSites, cost, err := TPlace(mres.Tunable, a, cfg, mres.LUTSite, mres.PadSite)
	if err != nil {
		return nil, err
	}
	return &dcsPlacement{merge: mres, lutSites: lutSites, padSites: padSites, cost: cost}, nil
}

// routeDCS routes a placed Tunable circuit with TRoute on region and
// assembles the DCS metrics; it is the one place a DCSResult is made.
// objective labels the troute span: a merge objective, or "identity".
// cfg must be filled: its RouteOpts are used as they are.
func routeDCS(p *dcsPlacement, region *Region, objective string, cfg Config) (*DCSResult, error) {
	sp := cfg.Trace.Start("troute", "objective", objective, "w", strconv.Itoa(region.Arch.W))
	tr, err := troute.RouteTunable(region.Graph, p.merge.Tunable, p.lutSites, p.padSites, cfg.RouteOpts)
	sp.End()
	if err != nil {
		return nil, err
	}
	res := &DCSResult{
		Merge:        p.merge,
		TRoute:       tr,
		ReconfigBits: tr.ReconfigBits(region.Arch),
		TPlaceCost:   p.cost,
	}
	for _, w := range tr.PerModeWire {
		res.AvgWire += float64(w)
	}
	res.AvgWire /= float64(len(tr.PerModeWire))
	return res, nil
}

// Speedup returns MDR reconfiguration bits over DCS reconfiguration bits
// (reconfiguration time is proportional to bits rewritten).
func Speedup(mdr *MDRResult, dcs *DCSResult) float64 {
	return float64(mdr.ReconfigBits) / float64(dcs.ReconfigBits)
}

// WireRatio returns the DCS average per-mode wirelength relative to MDR.
func WireRatio(mdr *MDRResult, dcs *DCSResult) float64 {
	if mdr.AvgWire == 0 {
		return 1
	}
	return dcs.AvgWire / mdr.AvgWire
}

// Package experiments reproduces the evaluation section of the paper:
// Table I (benchmark sizes), Fig. 5 (reconfiguration speed-up), Fig. 6
// (LUT/routing contribution breakdown), Fig. 7 (per-mode wirelength), the
// §IV-C area observations, and the ablations discussed in the text. The
// workloads are the three suites of §IV-A: regular-expression engines,
// constant-coefficient FIR filters, and general (MCNC-style) circuits.
//
// The evaluation is organised around mode *groups*: a group is any set of
// N ≥ 2 mode-circuit indices implemented together on one shared region.
// The paper's experiments are the 2-mode special case; BuildMultiSuites
// adds groups of 3–4 modes, for which every result carries the N×N
// switch-cost matrix (bits rewritten per specific mode transition).
//
// The benchmark × group sweep is executed by Runner, a worker pool that
// fans the independent jobs across GOMAXPROCS (or any requested number of)
// workers with deterministic result ordering, sharing routing-resource
// graphs and per-benchmark placements between jobs through a flow.Cache.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/gen/firgen"
	"repro/internal/gen/mcncgen"
	"repro/internal/gen/regexgen"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/route"
)

// Scale controls experiment size so the harness can run anywhere from a
// smoke test to the full paper configuration.
type Scale struct {
	// GroupsPerSuite caps the number of multi-mode groups per suite
	// (paper: 10). 0 means all. When the cap bites, a seeded
	// deterministic spread of the enumerated groups is selected, not a
	// prefix — a prefix would keep only the lowest-index combinations
	// and bias every statistic towards the first few benchmarks.
	GroupsPerSuite int
	// Effort is the annealing effort (paper-equivalent ≈ 1.0).
	Effort float64
	Seed   int64
	// PlaceStarts is the placement multi-start count (see
	// flow.Config.PlaceStarts). It changes results and IS part of the
	// group-result artifact key.
	PlaceStarts int
	// Cache shares deterministic intermediate products (routing-resource
	// graphs, placements) between jobs. Runner fills it automatically;
	// set it explicitly to extend the sharing across separate runs (e.g.
	// the figure sweep and the ablations of one mmbench invocation), and
	// back it with a persistent store (flow.NewCacheWithStore) to extend
	// it across processes — whole group results are then served from the
	// store. Nil means no memoization. Results are identical either way.
	Cache *flow.Cache
}

// FullScale reproduces the paper's complete sweep (30 multi-mode pairs).
func FullScale() Scale { return Scale{GroupsPerSuite: 10, Effort: 0.5, Seed: 1} }

// Suite is one benchmark family with its multi-mode combinations.
type Suite struct {
	Name     string
	Circuits []*lutnet.Circuit
	// Groups lists mode-circuit index sets forming multi-mode circuits.
	// Every group has at least two members; the paper's pair sweep is
	// the all-2-mode-groups case.
	Groups [][]int
}

func (s *Suite) config(sc Scale) flow.Config {
	return flow.Config{
		PlaceEffort: sc.Effort, Seed: sc.Seed,
		PlaceStarts: sc.PlaceStarts, Cache: sc.Cache,
	}
}

// BuildSuites generates the three benchmark suites of §IV-A with the
// paper's 2-mode groups.
func BuildSuites(sc Scale) ([]*Suite, error) {
	cfg := flow.Config{PlaceEffort: sc.Effort, Seed: sc.Seed}

	// RegExp: 5 engines, all C(5,2)=10 combinations.
	var regexNLs []*netlist.Netlist
	for _, r := range regexgen.BleedingEdgeRules() {
		n, err := regexgen.Generate(r.Name, r.Pattern, regexgen.Options{})
		if err != nil {
			return nil, err
		}
		regexNLs = append(regexNLs, n)
	}
	regexCircuits, err := flow.MapModes(regexNLs, cfg)
	if err != nil {
		return nil, err
	}
	regexSuite := &Suite{Name: "RegExp", Circuits: regexCircuits, Groups: allGroups(len(regexCircuits), 2)}

	// FIR: 10 low-pass + 10 high-pass; group i combines LP_i with HP_i.
	var firNLs []*netlist.Netlist
	for i := 0; i < 10; i++ {
		lp := firgen.DefaultSpec(firgen.LowPass, int64(i))
		n, err := firgen.Generate(fmt.Sprintf("lp%d", i), lp, firgen.Design(lp))
		if err != nil {
			return nil, err
		}
		firNLs = append(firNLs, n)
	}
	for i := 0; i < 10; i++ {
		hp := firgen.DefaultSpec(firgen.HighPass, int64(100+i))
		n, err := firgen.Generate(fmt.Sprintf("hp%d", i), hp, firgen.Design(hp))
		if err != nil {
			return nil, err
		}
		firNLs = append(firNLs, n)
	}
	firCircuits, err := flow.MapModes(firNLs, cfg)
	if err != nil {
		return nil, err
	}
	firSuite := &Suite{Name: "FIR", Circuits: firCircuits}
	for i := 0; i < 10; i++ {
		firSuite.Groups = append(firSuite.Groups, []int{i, 10 + i})
	}

	// MCNC-like: 5 synthetic circuits, all combinations.
	var mcncNLs []*netlist.Netlist
	for _, spec := range mcncgen.Suite() {
		n, err := mcncgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		mcncNLs = append(mcncNLs, n)
	}
	mcncCircuits, err := flow.MapModes(mcncNLs, cfg)
	if err != nil {
		return nil, err
	}
	mcncSuite := &Suite{Name: "MCNC", Circuits: mcncCircuits, Groups: allGroups(len(mcncCircuits), 2)}

	suites := []*Suite{regexSuite, firSuite, mcncSuite}
	for _, s := range suites {
		s.Groups = selectSpread(s.Groups, sc.GroupsPerSuite, sc.Seed)
	}
	return suites, nil
}

// FIRBankSpecs is the coefficient-bank set of the FIRBank multi-mode
// suite: four 4-tap banks of an adaptive filter (two low-pass cutoffs,
// two high-pass). Exported so the examples/coeffbank walkthrough
// illustrates exactly the suite that `mmbench -exp multi` evaluates.
func FIRBankSpecs() []firgen.Spec {
	return []firgen.Spec{
		{Kind: firgen.LowPass, Taps: 4, NonZero: 4, Cutoff: 0.18, CoeffBits: 4, InputBits: 4, Seed: 1},
		{Kind: firgen.LowPass, Taps: 4, NonZero: 4, Cutoff: 0.32, CoeffBits: 4, InputBits: 4, Seed: 2},
		{Kind: firgen.HighPass, Taps: 4, NonZero: 4, Cutoff: 0.24, CoeffBits: 4, InputBits: 4, Seed: 3},
		{Kind: firgen.HighPass, Taps: 4, NonZero: 4, Cutoff: 0.38, CoeffBits: 4, InputBits: 4, Seed: 4},
	}
}

// BuildMultiSuites generates suites whose groups have three or more
// modes — the scenario axis the pair sweep cannot express. The circuits
// are kept compact (a fraction of the paper's benchmark sizes) so the
// N-mode combined placement stays tractable:
//
//   - FIRBank: the FIRBankSpecs coefficient banks as one 4-mode group.
//   - RegExpSet: compact protocol signatures evaluated as 3-engine sets.
//   - Xceiver: a transceiver-style group of three mutually exclusive
//     protocol front-ends (web, ftp, dns).
//
// Every group result of these suites carries N×N switch-cost matrices.
func BuildMultiSuites(sc Scale) ([]*Suite, error) {
	cfg := flow.Config{PlaceEffort: sc.Effort, Seed: sc.Seed}

	// FIRBank: one 4-mode group of 4-tap coefficient banks.
	var firNLs []*netlist.Netlist
	for i, spec := range FIRBankSpecs() {
		n, err := firgen.Generate(fmt.Sprintf("bank%d", i), spec, firgen.Design(spec))
		if err != nil {
			return nil, err
		}
		firNLs = append(firNLs, n)
	}
	firCircuits, err := flow.MapModes(firNLs, cfg)
	if err != nil {
		return nil, err
	}
	firSuite := &Suite{Name: "FIRBank", Circuits: firCircuits, Groups: [][]int{{0, 1, 2, 3}}}

	// RegExpSet: four compact engines, all 3-mode subsets.
	patterns := []string{`GET /(a|b)x+`, `POST /(c|d)y+`, `PUT /(e|f)z+`, `HEAD /(g|h)w+`}
	var reNLs []*netlist.Netlist
	for i, p := range patterns {
		n, err := regexgen.Generate(fmt.Sprintf("re%d", i), p, regexgen.Options{})
		if err != nil {
			return nil, err
		}
		reNLs = append(reNLs, n)
	}
	reCircuits, err := flow.MapModes(reNLs, cfg)
	if err != nil {
		return nil, err
	}
	reSuite := &Suite{Name: "RegExpSet", Circuits: reCircuits, Groups: allGroups(len(reCircuits), 3)}

	// Xceiver: three mutually exclusive protocol front-ends.
	protos := []struct{ name, pattern string }{
		{"web", `GET /(admin|login)\?\w{4,}`},
		{"ftp", `(USER|PASS) \w{8,}`},
		{"dns", `\x00\x01(a|b|c)\w{6,}`},
	}
	var xNLs []*netlist.Netlist
	for _, p := range protos {
		n, err := regexgen.Generate(p.name, p.pattern, regexgen.Options{})
		if err != nil {
			return nil, err
		}
		xNLs = append(xNLs, n)
	}
	xCircuits, err := flow.MapModes(xNLs, cfg)
	if err != nil {
		return nil, err
	}
	xSuite := &Suite{Name: "Xceiver", Circuits: xCircuits, Groups: [][]int{{0, 1, 2}}}

	suites := []*Suite{firSuite, reSuite, xSuite}
	for _, s := range suites {
		s.Groups = selectSpread(s.Groups, sc.GroupsPerSuite, sc.Seed)
	}
	return suites, nil
}

// allGroups enumerates every k-subset of {0..n-1} in lexicographic order.
func allGroups(n, k int) [][]int {
	var out [][]int
	group := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]int(nil), group...))
			return
		}
		for i := start; i < n; i++ {
			group[depth] = i
			rec(i+1, depth+1)
		}
	}
	if k >= 1 && k <= n {
		rec(0, 0)
	}
	return out
}

// selectSpread caps the group list at max entries by drawing a seeded
// deterministic sample spread over the whole enumeration, then restores
// enumeration order so reports stay order-stable. A cap of 0 (or a list
// already within the cap) returns the list unchanged.
func selectSpread(groups [][]int, max int, seed int64) [][]int {
	if max <= 0 || len(groups) <= max {
		return groups
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(groups))[:max]
	sort.Ints(idx)
	out := make([][]int, 0, max)
	for _, i := range idx {
		out = append(out, groups[i])
	}
	return out
}

// SizeRow is one row of Table I.
type SizeRow struct {
	Suite         string
	Min, Avg, Max int
}

// TableI computes the size statistics of every suite's mode circuits.
func TableI(suites []*Suite) []SizeRow {
	var rows []SizeRow
	for _, s := range suites {
		min, max, sum := math.MaxInt32, 0, 0
		for _, c := range s.Circuits {
			b := c.NumBlocks()
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
			sum += b
		}
		rows = append(rows, SizeRow{Suite: s.Name, Min: min, Avg: sum / len(s.Circuits), Max: max})
	}
	return rows
}

// GroupResult holds every metric of one multi-mode group's evaluation.
type GroupResult struct {
	Suite, Name string
	ModeLUTs    []int
	Side, MinW  int
	ChannelW    int

	MDRBits  int
	DiffBits int // Diff accounting (all LUT bits + differing routing bits)
	EMBits   int // DCS edge matching
	WLBits   int // DCS wire-length optimisation

	// Routing-only cell counts for the Fig. 6 breakdown.
	LUTBitsTotal    int
	MDRRoutingBits  int
	DiffRoutingBits int
	EMRoutingBits   int
	WLRoutingBits   int

	SpeedupEM float64
	SpeedupWL float64

	WireMDR float64
	WireEM  float64 // relative to MDR (1.0 = equal)
	WireWL  float64

	// Per-switch cost matrices: bits rewritten when switching from mode i
	// to mode j, under the three accountings the paper compares. For a
	// 2-mode group these collapse to the single-number metrics above; for
	// N ≥ 3 they expose the cost of each specific transition.
	MDRSwitch  flow.SwitchMatrix // full-region rewrite
	DiffSwitch flow.SwitchMatrix // actually differing bitstream bits
	DCSSwitch  flow.SwitchMatrix // LUT bits + differing parameterised bits (WL objective)

	// Router work statistics, aggregated over the group's final routes
	// (MDR per mode plus both DCS objectives). Deterministic, so they are
	// encoded in the stored artifact like every other field.
	RouteIters   int // summed negotiation iterations
	RerouteConns int // summed connection reroutes
	PeakOveruse  int // worst single-mode node overuse seen
}

// NumModes returns the group's mode count.
func (r *GroupResult) NumModes() int { return len(r.ModeLUTs) }

// groupName renders a group's canonical name: the suite name followed by
// the member indices ("RegExp-0-1"; identical to the historical pair
// naming for 2-mode groups).
func groupName(suite string, group []int) string {
	var sb strings.Builder
	sb.WriteString(suite)
	for _, m := range group {
		fmt.Fprintf(&sb, "-%d", m)
	}
	return sb.String()
}

// groupModes resolves a group's circuit list.
func groupModes(s *Suite, group []int) []*lutnet.Circuit {
	modes := make([]*lutnet.Circuit, len(group))
	for i, idx := range group {
		modes[i] = s.Circuits[idx]
	}
	return modes
}

// RunGroup evaluates one multi-mode group under MDR, DCS-EdgeMatch and
// DCS-WireLength on a shared region, including the N×N switch-cost
// matrices. When the Scale's Cache carries a persistent artifact store,
// the whole evaluation is content-addressed: a warm store serves the
// result without running any flow (and therefore without any annealing or
// routing), and a computed result is written back for later processes.
// Store entries are pure functions of their keys, so warm and cold runs
// render byte-identical reports.
func RunGroup(suite *Suite, group []int, sc Scale) (*GroupResult, error) {
	if len(group) < 2 {
		return nil, fmt.Errorf("experiments: group %v has fewer than two modes", group)
	}
	cfg := suite.config(sc)
	modes := groupModes(suite, group)
	name := groupName(suite.Name, group)

	persistent := sc.Cache != nil && sc.Cache.Store() != nil
	var key codec.Hash
	if persistent {
		key = groupResultKey(sc.Cache, name, modes, sc)
		if data, ok := sc.Cache.GetArtifact(key); ok {
			if res, err := decodeGroupResult(data); err == nil {
				return res, nil
			}
			// Undecodable (stale format, logical corruption below the
			// store's checksum): recompute and overwrite below.
		}
	}

	cmp, err := flow.RunComparison(name, modes, cfg)
	if err != nil {
		return nil, err
	}
	region, mdr, em, wl := cmp.Region, cmp.MDR, cmp.EdgeMatch, cmp.WireLen

	luts := make([]int, len(modes))
	for i, m := range modes {
		luts[i] = m.NumBlocks()
	}
	// The Diff matrix assembles real bitstreams — negligible next to the
	// routing above, but the only part of the job the pre-group pair sweep
	// never exercised. If assembly fails the matrix stays nil rather than
	// sinking the whole sweep: the figures don't consume it, and the group
	// report renders the gap explicitly as "unavailable".
	diffSwitch, _ := flow.MDRDiffSwitchMatrix(region, modes, mdr)

	res := &GroupResult{
		Suite:    suite.Name,
		Name:     name,
		ModeLUTs: luts,
		Side:     region.Arch.Width,
		MinW:     region.MinW,
		ChannelW: region.Arch.W,

		MDRBits:  mdr.ReconfigBits,
		DiffBits: mdr.DiffReconfigBits(region.Arch),
		EMBits:   em.ReconfigBits,
		WLBits:   wl.ReconfigBits,

		LUTBitsTotal:    region.Arch.TotalLUTBits(),
		MDRRoutingBits:  region.Graph.NumRoutingBits,
		DiffRoutingBits: mdr.DiffRoutingBits,
		EMRoutingBits:   em.TRoute.ParamRoutingBits,
		WLRoutingBits:   wl.TRoute.ParamRoutingBits,

		SpeedupEM: flow.Speedup(mdr, em),
		SpeedupWL: flow.Speedup(mdr, wl),

		WireMDR: mdr.AvgWire,
		WireEM:  flow.WireRatio(mdr, em),
		WireWL:  flow.WireRatio(mdr, wl),

		MDRSwitch:  flow.MDRSwitchMatrix(region, len(modes)),
		DiffSwitch: diffSwitch,
		DCSSwitch:  flow.DCSSwitchMatrix(region.Arch, wl.TRoute, len(modes)),
	}
	var sum route.Summary
	for _, m := range mdr.PerMode {
		sum.Add(m.Routing.Stats)
	}
	sum.Add(em.TRoute.Route.Stats)
	sum.Add(wl.TRoute.Route.Stats)
	res.RouteIters, res.RerouteConns, res.PeakOveruse = sum.Iterations, sum.Rerouted, sum.PeakOveruse
	if persistent {
		if data, err := json.Marshal(res); err == nil {
			sc.Cache.PutArtifact(key, data)
		}
	}
	return res, nil
}

// Dist is a min/avg/max summary.
type Dist struct {
	Min, Avg, Max float64
}

func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Dist{Min: sorted[0], Avg: sum / float64(len(sorted)), Max: sorted[len(sorted)-1]}
}

// Fig5Row is one suite's bar group of Fig. 5 (speed-up vs MDR).
type Fig5Row struct {
	Suite     string
	EdgeMatch Dist
	WireLen   Dist
}

// Fig5 summarises the reconfiguration speed-up per suite.
func Fig5(results []*GroupResult) []Fig5Row {
	return groupBy(results, func(rs []*GroupResult) Fig5Row {
		var em, wl []float64
		for _, r := range rs {
			em = append(em, r.SpeedupEM)
			wl = append(wl, r.SpeedupWL)
		}
		return Fig5Row{Suite: rs[0].Suite, EdgeMatch: distOf(em), WireLen: distOf(wl)}
	})
}

// Fig6Bar is one bar of Fig. 6: the split of rewritten configuration bits
// between LUTs and routing.
type Fig6Bar struct {
	Label       string
	LUTBits     float64 // average
	RoutingBits float64
	LUTShare    float64 // fraction of the bar
}

// Fig6 computes the LUT/routing breakdown for the RegExp suite (the
// paper's Fig. 6), with bars MDR, Diff and DCS (wire-length optimised).
func Fig6(results []*GroupResult, suite string) []Fig6Bar {
	var lut, mdrR, diffR, dcsR []float64
	for _, r := range results {
		if r.Suite != suite {
			continue
		}
		lut = append(lut, float64(r.LUTBitsTotal))
		mdrR = append(mdrR, float64(r.MDRRoutingBits))
		diffR = append(diffR, float64(r.DiffRoutingBits))
		dcsR = append(dcsR, float64(r.WLRoutingBits))
	}
	mk := func(label string, routing []float64) Fig6Bar {
		l := distOf(lut).Avg
		rt := distOf(routing).Avg
		share := 0.0
		if l+rt > 0 {
			share = l / (l + rt)
		}
		return Fig6Bar{Label: label, LUTBits: l, RoutingBits: rt, LUTShare: share}
	}
	return []Fig6Bar{
		mk(suite+"-MDR", mdrR),
		mk(suite+"-Diff", diffR),
		mk(suite+"-DCS", dcsR),
	}
}

// Fig7Row is one suite's bar group of Fig. 7 (wirelength relative to MDR).
type Fig7Row struct {
	Suite     string
	EdgeMatch Dist
	WireLen   Dist
}

// Fig7 summarises the per-mode wirelength ratios.
func Fig7(results []*GroupResult) []Fig7Row {
	return groupBy(results, func(rs []*GroupResult) Fig7Row {
		var em, wl []float64
		for _, r := range rs {
			em = append(em, r.WireEM)
			wl = append(wl, r.WireWL)
		}
		return Fig7Row{Suite: rs[0].Suite, EdgeMatch: distOf(em), WireLen: distOf(wl)}
	})
}

func groupBy[T any](results []*GroupResult, f func([]*GroupResult) T) []T {
	order := []string{}
	groups := map[string][]*GroupResult{}
	for _, r := range results {
		if _, ok := groups[r.Suite]; !ok {
			order = append(order, r.Suite)
		}
		groups[r.Suite] = append(groups[r.Suite], r)
	}
	var out []T
	for _, s := range order {
		out = append(out, f(groups[s]))
	}
	return out
}

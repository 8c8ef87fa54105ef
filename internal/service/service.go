// Package service is the compile service behind cmd/mmserved and the
// local engine of cmd/mmflow: submit N BLIF mode descriptions, receive
// the full RunComparison result (region, MDR, DCS, switch-cost matrices)
// as one JSON document. Keeping the request/response types and
// CompileEnv here means the daemon, the CLI's local path and the CLI's
// -remote path all speak the same schema by construction.
package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/merge"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
)

// Mode is one BLIF mode description of a compile request. Name, when set,
// overrides the BLIF .model name (useful when submitting generated text
// that lacks one).
type Mode struct {
	Name string `json:"name,omitempty"`
	BLIF string `json:"blif"`
}

// CompileRequest asks for a full multi-mode comparison of N ≥ 2 modes.
// Zero-valued knobs take the flow defaults (K=4, effort 1.0, seed 0).
// Unknown fields are ignored — among them the route_workers and
// place_workers knobs older clients still send, which no kernel reads:
// every kernel runs serially within its compile.
type CompileRequest struct {
	Modes []Mode `json:"modes"`
	// K is the LUT input count.
	K int `json:"k,omitempty"`
	// Effort scales the annealing schedules.
	Effort float64 `json:"effort,omitempty"`
	// RefineFrac is TPlace's refinement opening-temperature fraction.
	RefineFrac float64 `json:"refine_frac,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	// Objective selects the combined-placement objective the DCS summary
	// reports: "wire" (default) or "edge". Both are always computed (the
	// comparison needs them); this picks which one the flat fields
	// describe.
	Objective string `json:"objective,omitempty"`
	// Starts is the multi-start count: run that many independently seeded
	// anneals and keep the best (at most maxStarts). It changes results,
	// so it IS part of RequestKey.
	Starts int `json:"starts,omitempty"`
	// BaselineKey, when set, is the baseline key a prior compile returned
	// (Result.BaselineKey): the flow then recompiles as an ECO delta —
	// reusing the baseline's region, transferring its placements through
	// a structural netlist diff and warm-starting its routers. A missing
	// or unusable baseline falls back to a cold compile (reported in
	// Result.Delta). Delta results follow a different trajectory than
	// cold ones, so the key IS part of RequestKey.
	BaselineKey string `json:"baseline_key,omitempty"`
}

// ModeInfo summarises one mapped mode.
type ModeInfo struct {
	Name string `json:"name"`
	LUTs int    `json:"luts"`
	FFs  int    `json:"ffs"`
	PIs  int    `json:"pis"`
	POs  int    `json:"pos"`
}

// RegionInfo describes the shared reconfigurable region.
type RegionInfo struct {
	Side        int `json:"side"`
	ChannelW    int `json:"channel_width"`
	MinW        int `json:"min_channel_width"`
	RoutingBits int `json:"routing_bits"`
	LUTBits     int `json:"lut_bits"`
}

// MDRInfo summarises the MDR baseline.
type MDRInfo struct {
	ReconfigBits int     `json:"reconfig_bits"`
	AvgWire      float64 `json:"avg_wire"`
}

// DCSInfo summarises the selected DCS implementation.
type DCSInfo struct {
	Objective        string  `json:"objective"`
	TLUTs            int     `json:"tluts"`
	Conns            int     `json:"tunable_connections"`
	SharedConns      int     `json:"shared_connections"`
	ReconfigBits     int     `json:"reconfig_bits"`
	ParamRoutingBits int     `json:"param_routing_bits"`
	AvgWire          float64 `json:"avg_wire"`
}

// SwitchInfo carries the per-transition cost matrices (row = from mode,
// column = to mode).
type SwitchInfo struct {
	MDRFull flow.SwitchMatrix `json:"mdr_full"`
	MDRDiff flow.SwitchMatrix `json:"mdr_diff,omitempty"`
	// MDRDiffError explains an absent MDRDiff (bitstream assembly can
	// fail without failing the compile); consumers can then distinguish
	// "unavailable, here is why" from a schema change.
	MDRDiffError string            `json:"mdr_diff_error,omitempty"`
	DCS          flow.SwitchMatrix `json:"dcs"`
	DCSAvg       float64           `json:"dcs_avg"`
	DCSWorst     int               `json:"dcs_worst"`
}

// Result is the compile response. Error is set (and every other field
// possibly partial) when the flow fails.
type Result struct {
	Error string     `json:"error,omitempty"`
	Modes []ModeInfo `json:"modes,omitempty"`

	Region *RegionInfo `json:"region,omitempty"`
	MDR    *MDRInfo    `json:"mdr,omitempty"`
	DCS    *DCSInfo    `json:"dcs,omitempty"`

	SpeedupVsMDR float64 `json:"speedup_vs_mdr,omitempty"`
	WireVsMDR    float64 `json:"wire_vs_mdr,omitempty"`

	// Routing aggregates the router's work over every final route of the
	// compile (the MDR per-mode routes plus both DCS TRoute passes;
	// region-sizing probes are excluded). Deterministic — the numbers are
	// part of the seeded trajectory — so they are safely part of the
	// cached result.
	Routing *route.Summary `json:"routing,omitempty"`

	SwitchCost *SwitchInfo `json:"switch_cost,omitempty"`

	// BaselineKey is the key under which this compile's own baseline
	// artifact was stored (persistent caches only) — pass it back as
	// CompileRequest.BaselineKey to recompile an edit as a delta.
	BaselineKey string `json:"baseline_key,omitempty"`
	// Delta is present when the request asked for a delta compile.
	Delta *flow.DeltaStats `json:"delta,omitempty"`
	// Timings is the per-stage wall-time breakdown of THIS process's work
	// on the request: flow stages for a live compile, a single
	// artifact-load row for a warm store hit. Wall-clock only — it is
	// stripped before a result is persisted (a cached result's timings
	// would describe some other process's run) and excluded from every
	// identity, so instrumented and uninstrumented compiles remain
	// byte-identical in all hashed fields.
	Timings []obs.StageTiming `json:"timings,omitempty"`
}

// maxStarts bounds CompileRequest.Starts: every start is a full anneal
// (only the best state so far is held), so an unbounded count from the
// wire would buy unbounded CPU.
const maxStarts = 16

// validate rejects knobs no compile should run with: an unknown objective
// or more than maxStarts starts. Both the worker and the dispatcher call
// it, so a bad request is refused before any work is queued.
func (req *CompileRequest) validate() error {
	if _, err := req.objective(); err != nil {
		return err
	}
	if req.Starts > maxStarts {
		return fmt.Errorf("service: %d starts exceed the limit of %d", req.Starts, maxStarts)
	}
	return nil
}

// objective resolves the requested combined-placement objective.
func (req *CompileRequest) objective() (merge.Objective, error) {
	switch strings.ToLower(req.Objective) {
	case "", "wire":
		return merge.WireLength, nil
	case "edge":
		return merge.EdgeMatch, nil
	default:
		return merge.WireLength, fmt.Errorf("service: unknown objective %q (want wire or edge)", req.Objective)
	}
}

// config assembles the flow configuration of a request.
func (req *CompileRequest) config(cache *flow.Cache) flow.Config {
	return flow.Config{
		K:                  req.K,
		PlaceEffort:        req.Effort,
		RefineTempFraction: req.RefineFrac,
		Seed:               req.Seed,
		PlaceStarts:        req.Starts,
		Baseline:           req.BaselineKey,
		Cache:              cache,
	}
}

// ParseModes reads every BLIF mode description of a request into a
// netlist, applying the optional per-mode name overrides.
func ParseModes(req *CompileRequest) ([]*netlist.Netlist, error) {
	if len(req.Modes) < 2 {
		return nil, fmt.Errorf("service: need at least two modes, got %d", len(req.Modes))
	}
	nls := make([]*netlist.Netlist, len(req.Modes))
	for i, m := range req.Modes {
		n, err := netlist.ReadBLIF(strings.NewReader(m.BLIF))
		if err != nil {
			return nil, fmt.Errorf("service: mode %d: %w", i, err)
		}
		if m.Name != "" {
			n.Name = m.Name
		}
		nls[i] = n
	}
	return nls, nil
}

// RequestKey derives the content-addressed identity of a parsed request:
// the netlist content hashes plus every knob the result depends on. Two
// textually different submissions of the same networks under the same
// knobs collapse to one key — the identity mmserved deduplicates in-flight
// requests on.
func RequestKey(nls []*netlist.Netlist, req *CompileRequest) codec.Hash {
	w := codec.NewWriter()
	// v2: the multi-start count joined the identity.
	w.Header("compile-request", 2)
	w.Uvarint(uint64(len(nls)))
	for _, n := range nls {
		h := codec.HashNetlist(n)
		w.String(h.Hex())
	}
	w.Int(req.K)
	w.Float64(req.Effort)
	w.Float64(req.RefineFrac)
	w.Varint(req.Seed)
	obj, _ := req.objective()
	w.Int(int(obj))
	starts := req.Starts
	if starts < 1 {
		starts = 1 // normalised: 0 and 1 starts are the same computation
	}
	w.Int(starts)
	// The baseline key changes the compile trajectory, so it joins the
	// identity — appended only when present, so every baseline-free
	// request keeps its pre-delta key (the encoding is prefix-free, so
	// the conditional field cannot collide with the fixed ones).
	if req.BaselineKey != "" {
		w.String(req.BaselineKey)
	}
	return w.Sum()
}

// resultVersion covers the Result schema and the semantics of everything
// CompileNetlistsEnv executes. Like every artifact version it is hashed into
// the store key, so bumping it orphans stale entries.
//
// v2: the connection-based incremental router (routing trajectories
// changed) and the RoutingInfo block in the schema.
//
// v3: the batched parallel-move annealing kernel (placement trajectories
// changed) and the multi-start count in the request identity.
//
// v4: ECO delta compilation — the baseline key joined the request
// identity, results carry BaselineKey/Delta, and every persistent
// compile stores a baseline artifact alongside its result.
//
// v5: a delta compile of an edit that changes LUT contents only inherits
// the baseline's combined placements instead of quenching them.
//
// v6: baselines moved to flow.BaselineVersion 2, so the baseline key a
// stored v5 result names no longer decodes (results unchanged).
const resultVersion = 6

// resultKey derives the store key of a whole compile result from the
// request's content identity (its RequestKey).
func resultKey(requestKey codec.Hash) codec.Hash {
	w := codec.NewWriter()
	w.Header("compile-result", resultVersion)
	w.String(requestKey.Hex())
	return w.Sum()
}

// Env bundles the cross-cutting machinery a compile runs inside: the
// work cache plus the observability sinks. The zero Env is valid — no
// memoization, no metrics, and an internal throwaway trace (so Timings
// are always populated on live compiles).
type Env struct {
	Cache *flow.Cache
	// Obs receives route/anneal/cache work metrics for this compile.
	Obs *obs.Registry
	// Trace receives the compile's span tree (mmflow -trace hands its
	// own in to write the Chrome trace afterwards). Must not be shared
	// by concurrent compiles.
	Trace *obs.Trace
}

// CompileEnv runs the full comparison for a request. The returned
// Comparison carries the in-memory implementation objects for callers
// (mmflow -v) that need more than the serialisable Result; remote
// callers — and warm store hits, which skip the flow entirely — only see
// the Result.
func CompileEnv(req *CompileRequest, env Env) (*Result, *flow.Comparison, error) {
	nls, err := ParseModes(req)
	if err != nil {
		return nil, nil, err
	}
	return CompileNetlistsEnv(nls, req, env)
}

// CompileNetlistsEnv is CompileEnv after BLIF parsing. When the cache
// carries a persistent store, whole results are content-addressed under
// the request identity: a warm request returns the stored Result without
// running any flow, and by determinism that Result is identical to what a
// fresh compile would produce. Every flow stage lands as a span in
// env.Trace (or an internal trace when nil), and the resulting per-stage
// breakdown is returned in Result.Timings.
func CompileNetlistsEnv(nls []*netlist.Netlist, req *CompileRequest, env Env) (*Result, *flow.Comparison, error) {
	if _, err := req.objective(); err != nil {
		return nil, nil, err
	}
	run := startRun(env)
	run.key = RequestKey(nls, req)
	if res, _ := run.warm(nil); res != nil {
		return res, nil, nil
	}
	return run.compile(nls, req)
}

// compileRun is one request's way through the compile path: its
// RequestKey, computed once and handed on, and its trace, whose root
// "compile" span stays open until the request has its result.
type compileRun struct {
	key  codec.Hash
	env  Env
	tr   *obs.Trace
	root *obs.Span
}

// startRun opens the run's root span; the caller sets key, so that
// deriving it is timed as part of the compile.
func startRun(env Env) *compileRun {
	tr := env.Trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	return &compileRun{env: env, tr: tr, root: tr.Start("compile")}
}

// persistent reports whether results are stored, and so can be served
// warm.
func (run *compileRun) persistent() bool {
	return run.env.Cache != nil && run.env.Cache.Store() != nil
}

// warm is the warm path, the one way a stored result is served: it
// returns the result stored under the run's key with an artifact-load
// timing, or nil when there is none (no persistent store, a miss, or an
// undecodable or incomplete entry, which the compile then overwrites).
// remembered, when non-nil, is a result an earlier warm hit of this
// process decoded for the same key: it is served without reading the
// store, and never modified, since the reply is a shallow copy carrying
// this run's timings. size is the stored entry's size when the result
// was read from the store, 0 otherwise.
func (run *compileRun) warm(remembered *Result) (res *Result, size int) {
	if !run.persistent() {
		return nil, 0
	}
	sp := run.tr.Start("artifact-load")
	shared := remembered
	if shared == nil {
		data, ok := run.env.Cache.GetArtifact(resultKey(run.key))
		var stored Result
		if ok && json.Unmarshal(data, &stored) == nil && stored.Error == "" && stored.Region != nil {
			shared, size = &stored, len(data)
		}
	}
	sp.End()
	if shared == nil {
		return nil, 0
	}
	run.root.SetLabel("path", "warm")
	run.root.End()
	out := *shared
	out.Timings = run.tr.Stages()
	return &out, size
}

// compile runs the flow for the run's request, whose parsed modes are
// nls, and stores the result when the cache is persistent.
func (run *compileRun) compile(nls []*netlist.Netlist, req *CompileRequest) (*Result, *flow.Comparison, error) {
	obj, err := req.objective()
	if err != nil {
		return nil, nil, err
	}
	cache, tr, root := run.env.Cache, run.tr, run.root
	cfg := req.config(cache)
	cfg.Obs = run.env.Obs
	cfg.Trace = tr
	mapped, err := flow.MapModes(nls, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{}
	for _, c := range mapped {
		res.Modes = append(res.Modes, ModeInfo{
			Name: c.Name, LUTs: c.NumBlocks(), FFs: c.NumFFs(), PIs: c.NumPIs(), POs: len(c.POs),
		})
	}
	cmp, err := flow.RunComparison("multimode", mapped, cfg)
	if err != nil {
		return res, nil, fmt.Errorf("mode set does not route: %w", err)
	}
	res.Delta = cmp.Delta
	region, mdr := cmp.Region, cmp.MDR
	dcs := cmp.WireLen
	if obj == merge.EdgeMatch {
		dcs = cmp.EdgeMatch
	}
	st := dcs.Merge.Tunable.Stats()
	n := len(mapped)

	res.Region = &RegionInfo{
		Side: region.Arch.Width, ChannelW: region.Arch.W, MinW: region.MinW,
		RoutingBits: region.Graph.NumRoutingBits, LUTBits: region.Arch.TotalLUTBits(),
	}
	res.MDR = &MDRInfo{ReconfigBits: mdr.ReconfigBits, AvgWire: mdr.AvgWire}
	res.DCS = &DCSInfo{
		Objective: fmt.Sprint(obj), TLUTs: st.NumTLUTs, Conns: st.NumConns, SharedConns: st.SharedConns,
		ReconfigBits: dcs.ReconfigBits, ParamRoutingBits: dcs.TRoute.ParamRoutingBits, AvgWire: dcs.AvgWire,
	}
	res.SpeedupVsMDR = flow.Speedup(mdr, dcs)
	res.WireVsMDR = flow.WireRatio(mdr, dcs)
	work := cmp.RouteWork()
	res.Routing = &work

	sp := tr.Start("bitstream")
	sw := &SwitchInfo{
		MDRFull: flow.MDRSwitchMatrix(region, n),
		DCS:     flow.DCSSwitchMatrix(region.Arch, dcs.TRoute, n),
	}
	// The Diff matrix assembles real bitstreams; when assembly fails the
	// compile still succeeds, with the reason recorded next to the gap.
	if diff, derr := flow.MDRDiffSwitchMatrix(region, mapped, mdr); derr == nil {
		sw.MDRDiff = diff
	} else {
		sw.MDRDiffError = derr.Error()
	}
	sw.DCSAvg = sw.DCS.Avg()
	_, _, sw.DCSWorst = sw.DCS.Worst()
	res.SwitchCost = sw
	sp.End()
	if res.Delta != nil && res.Delta.UsedBaseline {
		root.SetLabel("path", "delta")
	} else {
		root.SetLabel("path", "cold")
	}
	if run.persistent() {
		sp := tr.Start("artifact-store")
		// Store the baseline artifact of THIS compile next to the result,
		// keyed by the request identity, and hand the key back — the next
		// edit of these modes passes it as BaselineKey to compile as a
		// delta against today's run.
		if data, berr := flow.EncodeBaseline(flow.BuildBaseline(cmp, mapped)); berr == nil {
			bkey := flow.BaselineArtifactKey(run.key)
			cache.PutArtifact(bkey, data)
			res.BaselineKey = bkey.Hex()
		}
		// A baseline-miss fallback is transient state (the artifact may
		// exist by the next request); persisting it would pin the miss
		// forever. Cache only results whose delta disposition is stable.
		// Timings are deliberately absent here (res.Timings is set only
		// after this marshal): a persisted result is served to other
		// processes, whose time-to-result is their own artifact load, not
		// this compile's stage breakdown.
		if res.Delta == nil || !res.Delta.BaselineMiss {
			if data, jerr := json.Marshal(res); jerr == nil {
				cache.PutArtifact(resultKey(run.key), data)
			}
		}
		sp.End()
	}
	root.End()
	res.Timings = tr.Stages()
	return res, cmp, nil
}

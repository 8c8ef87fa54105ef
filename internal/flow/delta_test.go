package flow

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/codec"
	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/route"
	"repro/internal/store"
)

// editCircuit returns a deep copy of c with nEdits random LUTs re-functioned
// (one truth-table row flipped each) — the canonical ECO edit. Flipping a
// valid row guarantees the content hash changes.
func editCircuit(c *lutnet.Circuit, seed int64, nEdits int) *lutnet.Circuit {
	e := &lutnet.Circuit{
		Name:    c.Name,
		K:       c.K,
		PINames: append([]string(nil), c.PINames...),
		POs:     append([]lutnet.PO(nil), c.POs...),
		Blocks:  append([]lutnet.Block(nil), c.Blocks...),
	}
	for i := range e.Blocks {
		e.Blocks[i].Inputs = append([]lutnet.Source(nil), e.Blocks[i].Inputs...)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < nEdits; k++ {
		bi := rng.Intn(len(e.Blocks))
		tt := e.Blocks[bi].TT
		rows := 1 << tt.NumVars
		e.Blocks[bi].TT = logic.NewTT(tt.NumVars, tt.Bits^(uint64(1)<<rng.Intn(rows)))
	}
	return e
}

// rewireCircuit returns a deep copy of c with one LUT input moved onto a
// primary input the LUT does not read yet — a structural ECO edit, which
// the delta path must transfer and quench rather than inherit.
func rewireCircuit(c *lutnet.Circuit, seed int64) *lutnet.Circuit {
	e := editCircuit(c, seed, 0)
	rng := rand.New(rand.NewSource(seed))
	for {
		b := &e.Blocks[rng.Intn(len(e.Blocks))]
		if len(b.Inputs) == 0 {
			continue
		}
		pi := lutnet.Source{Kind: lutnet.SrcPI, Idx: rng.Intn(len(e.PINames))}
		if slices.Contains(b.Inputs, pi) {
			continue
		}
		b.Inputs[rng.Intn(len(b.Inputs))] = pi
		return e
	}
}

// deltaFixture compiles a three-mode group cold, stores its baseline
// artifact and returns everything a delta test needs.
type deltaFixture struct {
	cfg    Config
	mapped []*lutnet.Circuit
	cold   *Comparison
	key    codec.Hash
}

func newDeltaFixture(t *testing.T) *deltaFixture {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PlaceEffort: 0.15, Seed: 5, Cache: NewCacheWithStore(st)}
	nls := buildPair(t, 41, 42, 24)
	nls = append(nls, buildPair(t, 43, 44, 24)[0])
	mapped, err := MapModes(nls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunComparison("base", mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := codec.Sum([]byte("delta-test-baseline"))
	cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, BuildBaseline(cold, mapped)))
	return &deltaFixture{cfg: cfg, mapped: mapped, cold: cold, key: key}
}

func mustEncodeBaseline(t testing.TB, b *Baseline) []byte {
	t.Helper()
	data, err := EncodeBaseline(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBaselineRoundTrip: the artifact encoding is lossless, down to
// each stored circuit's content hash.
func TestBaselineRoundTrip(t *testing.T) {
	fx := newDeltaFixture(t)
	b := BuildBaseline(fx.cold, fx.mapped)
	dec, err := DecodeBaseline(mustEncodeBaseline(t, b), fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, dec) {
		t.Fatal("baseline artifact did not round-trip")
	}
	for m := range b.Modes {
		if codec.HashCircuit(dec.Modes[m].Circuit) != codec.HashCircuit(fx.mapped[m]) {
			t.Fatalf("mode %d circuit changed its content hash", m)
		}
	}
	if _, err := DecodeBaseline([]byte("garbage"), fx.cfg); err == nil {
		t.Fatal("garbage decoded as a baseline")
	}
}

// FuzzDecodeBaseline hardens the eco-baseline decoder, which reads bytes
// from the artifact store and the remote tier: it must never panic,
// every baseline it accepts must have valid circuits and a region whose
// graph builds, and it must encode to bytes that decode back to the same
// baseline, cost bits included. Its seeds, under
// testdata/fuzz/FuzzDecodeBaseline, are the delta fixture's baseline, a
// hand-made one-mode baseline small enough to mutate well (and a copy
// with an empty merge site vector), TestBaselineRoundTrip's garbage, and
// TestDeltaFallsBackCold's three bad baselines; plain go test replays
// them. Explore further with
// go test -run '^$' -fuzz FuzzDecodeBaseline ./internal/flow.
func FuzzDecodeBaseline(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBaseline(data, Config{})
		if err != nil {
			return
		}
		for m := range b.Modes {
			if err := b.Modes[m].Circuit.Validate(); err != nil {
				t.Fatalf("accepted mode %d has an invalid circuit: %v", m, err)
			}
		}
		arch.BuildGraph(arch.New(b.Side, b.Side, b.W)) // must not panic
		enc, err := EncodeBaseline(b)
		if err != nil {
			t.Fatalf("accepted baseline does not encode: %v", err)
		}
		got, err := DecodeBaseline(enc, Config{})
		if err != nil {
			t.Fatalf("re-encoded baseline does not decode: %v", err)
		}
		if len(got.Modes) != len(b.Modes) {
			t.Fatalf("%d modes decoded as %d", len(b.Modes), len(got.Modes))
		}
		for m := range b.Modes {
			if math.Float64bits(got.Modes[m].Cost) != math.Float64bits(b.Modes[m].Cost) {
				t.Fatalf("mode %d cost %v decoded as %v", m, b.Modes[m].Cost, got.Modes[m].Cost)
			}
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("baseline did not round-trip:\n%+v\n%+v", b, got)
		}
	})
}

// TestDeltaEquivalence is the delta-vs-cold equivalence suite: over 20
// seeded 1-to-3-LUT content edits and 6 single-fan-in rewires of a
// three-mode group, every delta compile must (a) succeed and use the
// baseline, (b) reuse the two untouched modes verbatim, take over the
// edited mode's placement and both combined placements, and warm-route
// most nets, (c) be byte-identical when repeated, and (d) on the sampled
// edits, stay within the documented QoR envelope of a cold compile of
// the same edited input: average per-mode wirelength within 1.75x (an
// edited mode's placement, and a rewire's combined placements, are a
// quench of the baseline, not a fresh anneal, so some wirelength
// regression is the price of the speedup; the envelope is asserted so
// it cannot silently grow).
func TestDeltaEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fx := newDeltaFixture(t)
	dcfg := fx.cfg
	dcfg.Baseline = fx.key.Hex()

	type deltaEdit struct {
		name       string
		mode       int
		edited     *lutnet.Circuit
		repeat     bool // recompile and require identical results
		checkQoR   bool
		structural bool // rewired: transferred and quenched, not inherited
	}
	var edits []deltaEdit
	for i := 0; i < 20; i++ {
		mi := i % 3
		edits = append(edits, deltaEdit{
			name: fmt.Sprintf("edit%02d", i), mode: mi,
			edited: editCircuit(fx.mapped[mi], int64(100+i), 1+i%3),
			repeat: i == 0, checkQoR: i%7 == 0,
		})
	}
	for i := 0; i < 6; i++ {
		mi := i % 3
		edits = append(edits, deltaEdit{
			name: fmt.Sprintf("rewire%02d", i), mode: mi,
			edited: rewireCircuit(fx.mapped[mi], int64(200+i)),
			repeat: i == 0, checkQoR: i%3 == 0, structural: true,
		})
	}

	for _, e := range edits {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if codec.ContentOnly(fx.mapped[e.mode], e.edited) == e.structural {
				t.Fatalf("edit is structural=%v but codec.ContentOnly says otherwise", e.structural)
			}
			edited := append([]*lutnet.Circuit(nil), fx.mapped...)
			edited[e.mode] = e.edited

			dcmp, err := RunComparison("delta", edited, dcfg)
			if err != nil {
				t.Fatalf("delta compile failed: %v", err)
			}
			d := dcmp.Delta
			if d == nil || !d.UsedBaseline || d.BaselineMiss {
				t.Fatalf("delta path not taken: %+v", d)
			}
			if d.ReusedModes != 2 {
				t.Fatalf("reused %d/2 untouched modes", d.ReusedModes)
			}
			// One edited MDR mode + two combined placements transfer.
			if d.PlaceTransfers != 3 {
				t.Fatalf("PlaceTransfers = %d, want 3", d.PlaceTransfers)
			}
			if d.WarmRouteNets == 0 {
				t.Fatal("no nets warm-routed")
			}
			// The delta region is the baseline region verbatim.
			if dcmp.Region.Arch.Width != fx.cold.Region.Arch.Width || dcmp.Region.Arch.W != fx.cold.Region.Arch.W {
				t.Fatalf("delta region %dx%d/W%d differs from baseline",
					dcmp.Region.Arch.Width, dcmp.Region.Arch.Width, dcmp.Region.Arch.W)
			}

			if e.repeat {
				// Determinism: recompiling the same delta is
				// byte-identical.
				jcmp, err := RunComparison("delta", edited, dcfg)
				if err != nil {
					t.Fatal(err)
				}
				for m := range dcmp.MDR.PerMode {
					if !reflect.DeepEqual(dcmp.MDR.PerMode[m].Placement.SiteOf, jcmp.MDR.PerMode[m].Placement.SiteOf) {
						t.Fatalf("mode %d placement differs between identical delta compiles", m)
					}
					if !reflect.DeepEqual(dcmp.MDR.PerMode[m].Routing.Trees, jcmp.MDR.PerMode[m].Routing.Trees) {
						t.Fatalf("mode %d routing differs between identical delta compiles", m)
					}
				}
				if dcmp.WireLen.ReconfigBits != jcmp.WireLen.ReconfigBits ||
					dcmp.WireLen.TPlaceCost != jcmp.WireLen.TPlaceCost ||
					dcmp.EdgeMatch.ReconfigBits != jcmp.EdgeMatch.ReconfigBits {
					t.Fatal("DCS results differ between identical delta compiles")
				}
			}

			if e.checkQoR {
				// QoR accounting against a cold compile of the same edit.
				ccmp, err := RunComparison("cold", edited, fx.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if dcmp.MDR.AvgWire > 1.75*ccmp.MDR.AvgWire {
					t.Errorf("delta MDR wire %.1f exceeds 1.75x cold %.1f", dcmp.MDR.AvgWire, ccmp.MDR.AvgWire)
				}
				if dcmp.WireLen.AvgWire > 1.75*ccmp.WireLen.AvgWire {
					t.Errorf("delta DCS wire %.1f exceeds 1.75x cold %.1f", dcmp.WireLen.AvgWire, ccmp.WireLen.AvgWire)
				}
			}
		})
	}
}

// TestDeltaFallsBackCold: a missing baseline, a corrupt one, and ones no
// cold compile could have stored (a negative or absurd channel width, an
// invalid circuit) all degrade to a cold compile — identical to a
// baseline-free run — and are counted. A bad region is rejected before
// any graph is built on it.
func TestDeltaFallsBackCold(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PlaceEffort: 0.15, Seed: 5, Cache: NewCacheWithStore(st)}
	mapped, err := MapModes(buildPair(t, 41, 42, 24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunComparison("cold", mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Missing baseline.
	mcfg := cfg
	mcfg.Baseline = codec.Sum([]byte("no-such-artifact")).Hex()
	miss, err := RunComparison("miss", mapped, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Delta == nil || !miss.Delta.BaselineMiss || miss.Delta.UsedBaseline {
		t.Fatalf("missing baseline not reported: %+v", miss.Delta)
	}

	// Corrupt baseline.
	ckey := codec.Sum([]byte("corrupt-artifact"))
	cfg.Cache.PutArtifact(ckey, []byte("not a baseline"))
	ccfg := cfg
	ccfg.Baseline = ckey.Hex()
	corrupt, err := RunComparison("corrupt", mapped, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt.Delta == nil || !corrupt.Delta.BaselineMiss {
		t.Fatalf("corrupt baseline not reported: %+v", corrupt.Delta)
	}

	// The fallback is the cold path: same placements as the baseline-free
	// run (placements come from the shared cache, but routing and DCS are
	// recomputed identically).
	sameAsCold := func(name string, fb *Comparison) {
		t.Helper()
		for m := range cold.MDR.PerMode {
			if !reflect.DeepEqual(cold.MDR.PerMode[m].Routing.Trees, fb.MDR.PerMode[m].Routing.Trees) {
				t.Fatalf("%s: fallback mode %d routing differs from cold", name, m)
			}
		}
		if cold.WireLen.ReconfigBits != fb.WireLen.ReconfigBits {
			t.Fatalf("%s: fallback DCS differs from cold", name)
		}
	}
	sameAsCold("corrupt", corrupt)

	// Baselines whose JSON parses but that no cold compile could have
	// stored.
	// The cold run built every graph a fallback needs, so the count of
	// built graphs shows whether the bad region reached arch.BuildGraph.
	graphs := cfg.Cache.Stats().GraphBuilds
	for _, tc := range []struct {
		name string
		bad  func(b *Baseline)
	}{
		{"w-minus-2", func(b *Baseline) { b.W = -2 }},
		{"absurd-w", func(b *Baseline) { b.W = 1 << 40 }},
		{"invalid-circuit", func(b *Baseline) {
			c := editCircuit(b.Modes[0].Circuit, 0, 0) // a copy: mapped[0] stays intact
			i := slices.IndexFunc(c.Blocks, func(b lutnet.Block) bool { return len(b.Inputs) > 0 })
			c.Blocks[i].Inputs[0] = lutnet.Source{Kind: lutnet.SrcBlock, Idx: len(c.Blocks)}
			b.Modes[0].Circuit = c
		}},
	} {
		b := BuildBaseline(cold, mapped)
		tc.bad(b)
		key := codec.Sum([]byte("bad-baseline-" + tc.name))
		cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, b))
		bcfg := cfg
		bcfg.Baseline = key.Hex()
		bad, err := RunComparison(tc.name, mapped, bcfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bad.Delta == nil || !bad.Delta.BaselineMiss || bad.Delta.UsedBaseline {
			t.Fatalf("%s: bad baseline not reported: %+v", tc.name, bad.Delta)
		}
		sameAsCold(tc.name, bad)
	}
	if got := cfg.Cache.Stats().GraphBuilds; got != graphs {
		t.Fatalf("bad baselines built %d graphs", got-graphs)
	}

	if got := cfg.Cache.Stats().BaselineMisses; got != 5 {
		t.Fatalf("BaselineMisses = %d, want 5", got)
	}
}

// TestDeltaTeleportTreesRouteCold: a stored baseline whose trees join
// each net's source straight to its sinks — edges no wire of the region
// provides — must not be taken as routed. The delta compile of the
// unchanged modes may keep the baseline, but every MDR tree edge it
// returns is an edge of the region's graph.
func TestDeltaTeleportTreesRouteCold(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PlaceEffort: 0.15, Seed: 5, Cache: NewCacheWithStore(st)}
	mapped, err := MapModes(buildPair(t, 41, 42, 24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunComparison("cold", mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := BuildBaseline(cold, mapped)
	for m := range b.Modes {
		for i := range b.Modes[m].Nets {
			net := cold.MDR.PerMode[m].Nets[i]
			var teleport []route.Edge
			for _, sink := range net.Sinks {
				teleport = append(teleport, route.Edge{From: net.Source, To: sink})
			}
			b.Modes[m].Nets[i].Edges = teleport
		}
	}
	key := codec.Sum([]byte("teleport-baseline"))
	cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, b))
	dcfg := cfg
	dcfg.Baseline = key.Hex()
	delta, err := RunComparison("teleport", mapped, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := delta.Region.Graph
	for m, pm := range delta.MDR.PerMode {
		for i, tree := range pm.Routing.Trees {
			for _, e := range tree.Edges {
				if !slices.Contains(g.Edges(e.From), e.To) {
					t.Fatalf("mode %d net %d: tree edge %d->%d is not a graph edge", m, i, e.From, e.To)
				}
			}
		}
	}
}

// TestDeltaContentOnly: a delta compile of an edit that changes LUT
// contents only inherits the baseline's combined placements, so both
// DCS objectives come out exactly as a cold compile of the edited modes
// (the baseline's own cold compile routed them on the same region), with
// the TLUT contents of the edit. Baseline merge sites that no longer fit
// degrade without a panic: to the transfer path when only an edited
// mode's sites are off the architecture, to a cold compile when an
// untouched mode's are too few.
func TestDeltaContentOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fx := newDeltaFixture(t)
	const mi = 1
	edited := append([]*lutnet.Circuit(nil), fx.mapped...)
	edited[mi] = editCircuit(fx.mapped[mi], 300, 2)

	dcfg := fx.cfg
	dcfg.Baseline = fx.key.Hex()
	dcmp, err := RunComparison("delta", edited, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := dcmp.Delta; d == nil || !d.UsedBaseline || d.PlaceTransfers != 3 {
		t.Fatalf("delta path not taken or placements not taken over: %+v", d)
	}
	ccmp, err := RunComparison("delta", edited, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ccmp.Region.Arch != dcmp.Region.Arch {
		t.Fatalf("cold region %+v differs from the baseline's %+v", ccmp.Region.Arch, dcmp.Region.Arch)
	}
	for _, obj := range []merge.Objective{merge.WireLength, merge.EdgeMatch} {
		dres, cres := dcmp.WireLen, ccmp.WireLen
		if obj == merge.EdgeMatch {
			dres, cres = dcmp.EdgeMatch, ccmp.EdgeMatch
		}
		if !reflect.DeepEqual(dres.Merge, cres.Merge) {
			t.Errorf("%v: inherited combined placement differs from cold", obj)
		}
		if dres.TPlaceCost != cres.TPlaceCost {
			t.Errorf("%v: TPlace cost %v, cold %v", obj, dres.TPlaceCost, cres.TPlaceCost)
		}
		if !reflect.DeepEqual(dres.TRoute.Route.Trees, cres.TRoute.Route.Trees) {
			t.Errorf("%v: TRoute trees differ from cold", obj)
		}
		if dres.TRoute.ParamRoutingBits != cres.TRoute.ParamRoutingBits {
			t.Errorf("%v: %d parameterised routing bits, cold %d", obj, dres.TRoute.ParamRoutingBits, cres.TRoute.ParamRoutingBits)
		}
		// The Tunable circuit carries the edit's LUT contents.
		ext, err := dres.Merge.Tunable.ExtractMode(mi)
		if err != nil {
			t.Fatal(err)
		}
		if codec.HashCircuit(ext) == codec.HashCircuit(fx.mapped[mi]) {
			t.Errorf("%v: TLUTs carry the baseline's contents, not the edit's", obj)
		}
	}

	// Baselines whose wire-length merge sites no longer fit.
	for _, tc := range []struct {
		name string
		mode int
		bad  func([]arch.Site) []arch.Site
		miss bool
	}{
		{"off-arch", mi, func(s []arch.Site) []arch.Site {
			s = slices.Clone(s)
			s[0].X += 1000
			return s
		}, false},
		{"short", (mi + 1) % 3, func(s []arch.Site) []arch.Site { return s[:len(s)-1] }, true},
	} {
		b := BuildBaseline(fx.cold, fx.mapped)
		ms := b.Merges[merge.WireLength].ModeSites
		ms[tc.mode] = tc.bad(ms[tc.mode])
		key := codec.Sum([]byte("delta-test-" + tc.name))
		fx.cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, b))
		bcfg := fx.cfg
		bcfg.Baseline = key.Hex()
		bcmp, err := RunComparison("delta", edited, bcfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := bcmp.Delta; d == nil || d.BaselineMiss != tc.miss || d.UsedBaseline == tc.miss {
			t.Fatalf("%s: delta %+v, want baseline miss %v", tc.name, d, tc.miss)
		}
	}
}

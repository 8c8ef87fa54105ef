// Benchmarks regenerating the paper's tables and figures at reduced scale
// (one benchmark per artefact; cmd/mmbench runs the full-size versions).
// Metrics are attached with b.ReportMetric, so `go test -bench=.` prints
// the quantities each figure reports: speed-ups, wirelength ratios and bit
// counts.
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/codec"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/gen/firgen"
	"repro/internal/gen/mcncgen"
	"repro/internal/gen/regexgen"
	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/techmap"
)

// benchConfig is the reduced-effort configuration used by the benchmarks.
func benchConfig() flow.Config {
	return flow.Config{PlaceEffort: 0.15, Seed: 1}
}

// miniModes builds a small two-mode workload (regex engines a fraction of
// the paper's size) shared by several benchmarks.
func miniModes(b *testing.B) []*lutnet.Circuit {
	b.Helper()
	n1, err := regexgen.Generate("m1", `GET /(a|b)[\w]{6,}`, regexgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	n2, err := regexgen.Generate("m2", `POST /(c|d)[\w]{6,}`, regexgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := flow.MapModes([]*netlist.Netlist{n1, n2}, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return mapped
}

// sweepSuites builds a small one-suite workload over four mode circuits:
// all six 2-mode groups plus one 3-mode group — enough independent jobs to
// exercise the worker pool and the N-mode path of the sweep.
func sweepSuites(b *testing.B) []*experiments.Suite {
	b.Helper()
	var nls []*netlist.Netlist
	for i, pat := range []string{`GET /(a|b)x+`, `POST /(c|d)y+`, `PUT /(e|f)z+`, `HEAD /(g|h)w+`} {
		n, err := regexgen.Generate(fmt.Sprintf("m%d", i), pat, regexgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nls = append(nls, n)
	}
	mapped, err := flow.MapModes(nls, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return []*experiments.Suite{{
		Name:     "RegExp",
		Circuits: mapped,
		Groups:   [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 1, 2}},
	}}
}

// runSweep executes the pair sweep on the given worker count with a fresh
// cache (so every run does the full work) and returns the rendered report.
func runSweep(b *testing.B, suites []*experiments.Suite, workers int) []byte {
	b.Helper()
	sc := experiments.Scale{Effort: 0.15, Seed: 1, Cache: flow.NewCache()}
	results, err := experiments.RunAll(suites, sc, workers, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.WriteFigures(&buf, results)
	return buf.Bytes()
}

// BenchmarkSweep measures the experiment sweep through the concurrent
// runner: the serial baseline (one worker) against the full worker pool.
// On a 4+ core machine the parallel variant should win by ≥2×. Every run's
// rendered report is checked byte for byte against the serial baseline —
// the worker count may change only the wall clock, never the results.
func BenchmarkSweep(b *testing.B) {
	suites := sweepSuites(b)
	baseline := runSweep(b, suites, 1)
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, 4, n)
	} else if n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("parallel-j%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := runSweep(b, suites, workers)
				if !bytes.Equal(got, baseline) {
					b.Fatalf("report at %d workers differs from serial baseline", workers)
				}
			}
		})
	}
}

// runSweepStore executes the sweep against a cache backed by the artifact
// store rooted at dir, returning the rendered report and the cache stats.
func runSweepStore(b *testing.B, suites []*experiments.Suite, dir string) ([]byte, flow.Stats) {
	b.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	sc := experiments.Scale{Effort: 0.15, Seed: 1, Cache: flow.NewCacheWithStore(st)}
	results, err := experiments.RunAll(suites, sc, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.WriteFigures(&buf, results)
	return buf.Bytes(), sc.Cache.Stats()
}

// BenchmarkSweepStore measures the persistent artifact store under the
// sweep: the cold path (empty store — full annealing and routing plus the
// write-back) against the warm path (every group result already stored).
// Both must render the byte-identical report of the uncached serial
// baseline — the store, like the in-memory cache, may change only how
// often work is done — and the warm path must skip placement annealing
// entirely. The warm sub-benchmark reports the measured cold/warm
// speed-up (thousands on this workload: the sweep collapses to a handful
// of store reads).
func BenchmarkSweepStore(b *testing.B) {
	suites := sweepSuites(b)
	baseline := runSweep(b, suites, 1)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, _ := runSweepStore(b, suites, filepath.Join(b.TempDir(), fmt.Sprintf("c%d", i)))
			if !bytes.Equal(got, baseline) {
				b.Fatal("cold-store report differs from the uncached baseline")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		start := time.Now()
		if got, _ := runSweepStore(b, suites, dir); !bytes.Equal(got, baseline) {
			b.Fatal("populating run differs from the uncached baseline")
		}
		coldDur := time.Since(start)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, stats := runSweepStore(b, suites, dir)
			if !bytes.Equal(got, baseline) {
				b.Fatal("warm-store report differs from the uncached baseline")
			}
			if stats.PlaceAnneals != 0 {
				b.Fatalf("warm sweep annealed %d placements, want 0", stats.PlaceAnneals)
			}
		}
		warmPer := b.Elapsed() / time.Duration(b.N)
		if warmPer > 0 {
			b.ReportMetric(float64(coldDur)/float64(warmPer), "cold/warm-speedup-x")
		}
	})
}

// editOneLUT returns a copy of the modes with one truth-table row of one
// LUT of mode 0 flipped — the canonical smallest ECO edit.
func editOneLUT(modes []*lutnet.Circuit) []*lutnet.Circuit {
	out := append([]*lutnet.Circuit(nil), modes...)
	c := modes[0]
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
	bi := len(e.Blocks) / 2
	tt := e.Blocks[bi].TT
	e.Blocks[bi].TT = logic.NewTT(tt.NumVars, tt.Bits^1)
	out[0] = e
	return out
}

// BenchmarkEditRecompile measures the ECO loop the delta path exists for:
// a 1-LUT edit of the two-mode regex workload, recompiled from scratch
// (cold: region sizing, fresh anneals, cold routes) versus against the
// unedited compile's baseline artifact (delta: region reused, placements
// transferred and quenched, routing warm-started). The delta sub-benchmark
// reports the measured cold/delta speed-up; both paths produce legal,
// deterministic results — the delta trajectory differs from cold within
// the QoR envelope asserted by the flow package's equivalence suite.
func BenchmarkEditRecompile(b *testing.B) {
	modes := miniModes(b)
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cache := flow.NewCacheWithStore(st)
	cfg := benchConfig()
	cfg.Cache = cache
	base, err := flow.RunComparison("bench", modes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	key := codec.Sum([]byte("bench-baseline"))
	cache.PutArtifact(key, flow.EncodeBaseline(flow.BuildBaseline(base, modes)))
	edited := editOneLUT(modes)

	coldOnce := func() {
		ccfg := benchConfig()
		ccfg.Cache = flow.NewCache()
		if _, err := flow.RunComparison("bench", edited, ccfg); err != nil {
			b.Fatal(err)
		}
	}
	coldStart := time.Now()
	coldOnce()
	coldDur := time.Since(coldStart)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldOnce()
		}
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh memory tier over the shared store each iteration:
			// the timed work is exactly one delta compile, not a memo hit.
			dcfg := benchConfig()
			dcfg.Cache = flow.NewCacheWithStore(st)
			dcfg.Baseline = key.Hex()
			cmp, err := flow.RunComparison("bench", edited, dcfg)
			if err != nil {
				b.Fatal(err)
			}
			if cmp.Delta == nil || !cmp.Delta.UsedBaseline {
				b.Fatal("delta compile fell back to cold")
			}
		}
		if per := b.Elapsed() / time.Duration(b.N); per > 0 {
			b.ReportMetric(float64(coldDur)/float64(per), "delta-speedup-x")
		}
	})
}

// BenchmarkTable1SuiteGeneration regenerates Table I: the three benchmark
// suites through synthesis and technology mapping, reporting the average
// 4-LUT counts per suite.
func BenchmarkTable1SuiteGeneration(b *testing.B) {
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		suites, err := experiments.BuildSuites(experiments.Scale{GroupsPerSuite: 1, Effort: 0.1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows = experiments.TableI(suites)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Avg), r.Suite+"-avg-LUTs")
	}
}

// benchComparison runs the full three-way comparison on the miniature
// workload, reporting figure metrics.
func benchComparison(b *testing.B, report func(*testing.B, *flow.Comparison)) {
	modes := miniModes(b)
	b.ResetTimer()
	var cmp *flow.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = flow.RunComparison("bench", modes, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, cmp)
}

// BenchmarkFig5Reconfiguration regenerates Fig. 5's series: the
// reconfiguration speed-up of DCS (both objectives) over MDR.
func BenchmarkFig5Reconfiguration(b *testing.B) {
	benchComparison(b, func(b *testing.B, cmp *flow.Comparison) {
		b.ReportMetric(flow.Speedup(cmp.MDR, cmp.EdgeMatch), "speedup-edgematch")
		b.ReportMetric(flow.Speedup(cmp.MDR, cmp.WireLen), "speedup-wirelength")
	})
}

// BenchmarkFig6Breakdown regenerates Fig. 6's bars: routing configuration
// cells rewritten under MDR, Diff counting, and DCS.
func BenchmarkFig6Breakdown(b *testing.B) {
	benchComparison(b, func(b *testing.B, cmp *flow.Comparison) {
		b.ReportMetric(float64(cmp.Region.Graph.NumRoutingBits), "routing-bits-MDR")
		b.ReportMetric(float64(cmp.MDR.DiffRoutingBits), "routing-bits-Diff")
		b.ReportMetric(float64(cmp.WireLen.TRoute.ParamRoutingBits), "routing-bits-DCS")
		b.ReportMetric(float64(cmp.Region.Arch.TotalLUTBits()), "LUT-bits")
	})
}

// BenchmarkFig7Wirelength regenerates Fig. 7's series: per-mode wirelength
// of the DCS implementations relative to MDR.
func BenchmarkFig7Wirelength(b *testing.B) {
	benchComparison(b, func(b *testing.B, cmp *flow.Comparison) {
		b.ReportMetric(100*flow.WireRatio(cmp.MDR, cmp.EdgeMatch), "wire-pct-edgematch")
		b.ReportMetric(100*flow.WireRatio(cmp.MDR, cmp.WireLen), "wire-pct-wirelength")
	})
}

// BenchmarkAreaSavings regenerates the §IV-C area observations: the
// constant-coefficient FIR versus the generic programmable filter.
func BenchmarkAreaSavings(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c, g, r, err := experiments.FIRGenericRatio(experiments.Scale{Effort: 0.1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		_, _ = c, g
		ratio = r
	}
	b.ReportMetric(100*ratio, "const-vs-generic-pct")
}

// BenchmarkAblationMergeStrategies regenerates the merge-strategy ablation:
// identity merge (no combined placement) versus the two optimised merges.
func BenchmarkAblationMergeStrategies(b *testing.B) {
	modes := miniModes(b)
	cfg := benchConfig()
	region, err := flow.SizeRegion(modes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	region = flow.Config{}.NewRegion(region.Arch.Width, region.Arch.W+4)
	b.ResetTimer()
	var id, wl *flow.DCSResult
	for i := 0; i < b.N; i++ {
		id, err = flow.RunDCSIdentity("abl", modes, region, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wl, err = flow.RunDCS("abl", modes, region, merge.WireLength, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(id.ReconfigBits), "bits-identity-merge")
	b.ReportMetric(float64(wl.ReconfigBits), "bits-combined-placement")
}

// BenchmarkFramesOutlook regenerates the §IV-C1 frame-granularity outlook:
// the routing-frame speed-up when only frames holding rewritten bits are
// reconfigured (predicted 4×–20× by the paper).
func BenchmarkFramesOutlook(b *testing.B) {
	benchComparison(b, func(b *testing.B, cmp *flow.Comparison) {
		onCount := map[int32]int{}
		for _, m := range cmp.MDR.PerMode {
			for bit := range m.UsedBits {
				onCount[bit]++
			}
		}
		var diffBits []int32
		for bit, c := range onCount {
			if c != len(cmp.MDR.PerMode) {
				diffBits = append(diffBits, bit)
			}
		}
		rep := frames.Analyze(cmp.Region.Graph, 64, diffBits, cmp.WireLen.TRoute.BitModes, 2)
		b.ReportMetric(float64(rep.TotalFrames), "frames-total")
		b.ReportMetric(float64(rep.ParamFrames), "frames-param")
		b.ReportMetric(rep.SpeedupDCS, "frame-speedup")
	})
}

// BenchmarkBitstreamRoundTrip measures full configuration assembly plus
// decoding (the verification loop of package bitstream).
func BenchmarkBitstreamRoundTrip(b *testing.B) {
	c, err := techmap.Map(synth.Optimize(benchNetlist(300, 9)), 4)
	if err != nil {
		b.Fatal(err)
	}
	side := arch.MinGridForBlocks(c.NumBlocks(), c.NumPIs()+len(c.POs), 1.2)
	a := arch.New(side, side, 10)
	g := arch.BuildGraph(a)
	prob, cc := place.FromCircuit(c)
	pl, err := place.Place(prob, a, place.Options{Seed: 1, Effort: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	nets, err := route.NetsForPlacedCircuit(g, c, cc, pl)
	if err != nil {
		b.Fatal(err)
	}
	rr, err := route.Route(g, nets, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	names, err := bitstream.CircuitPadNames(g, c, cc, pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := bitstream.Assemble(g, c, cc, pl, nets, rr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bitstream.Decode(g, cfg, names); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component-level benchmarks (the substrates) ---

func benchNetlist(n int, seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	bld := netlist.NewBuilder(fmt.Sprintf("b%d", seed))
	sigs := bld.InputVector("in", 8)
	for i := 0; i < n; i++ {
		x := sigs[rng.Intn(len(sigs))]
		y := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(4) {
		case 0:
			sigs = append(sigs, bld.And(x, y))
		case 1:
			sigs = append(sigs, bld.Or(x, y))
		case 2:
			sigs = append(sigs, bld.Xor(x, y))
		default:
			sigs = append(sigs, bld.Latch(x, false))
		}
	}
	for i := 0; i < 6; i++ {
		bld.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
	}
	return bld.N
}

// benchPlaceCircuit maps one full-scale regex engine — the paper's
// primary workload, and the shape the placer actually sees in the sweep:
// a couple hundred cells whose char-match broadcast nets fan out to over
// a hundred sinks. (The random benchNetlist is useless here: its gates
// mostly collapse to constants under synthesis.)
func benchPlaceCircuit(b *testing.B) *lutnet.Circuit {
	b.Helper()
	var rule *regexgen.Rule
	for i, r := range regexgen.BleedingEdgeRules() {
		if r.Name == "ftp-user-overflow" { // max-fanout net ~150 pins
			rule = &regexgen.BleedingEdgeRules()[i]
			break
		}
	}
	if rule == nil {
		b.Fatal("ftp-user-overflow rule missing from BleedingEdgeRules")
	}
	n, err := regexgen.Generate(rule.Name, rule.Pattern, regexgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := flow.MapModes([]*netlist.Netlist{n}, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return mapped[0]
}

// BenchmarkSynthOptimize measures the synthesis clean-up passes.
func BenchmarkSynthOptimize(b *testing.B) {
	n := benchNetlist(600, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.Optimize(n)
	}
}

// BenchmarkTechmap measures K-LUT mapping.
func BenchmarkTechmap(b *testing.B) {
	n := synth.Optimize(benchNetlist(600, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := techmap.Map(n, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceAnneal measures the VPR-style placer on the shared
// annealing kernel, with allocations reported: the incremental
// bounding-box cost model keeps the whole move loop allocation-free.
// The single-start placement runs beside the 4-start multi-start variant
// and an instrumented run, which is checked byte-identical to the plain
// one before timing starts — metrics may change only the wall clock,
// never the placement.
func BenchmarkPlaceAnneal(b *testing.B) {
	c := benchPlaceCircuit(b)
	side := arch.MinGridForBlocks(c.NumBlocks(), c.NumPIs()+len(c.POs), 1.2)
	a := arch.New(side, side, 8)
	prob, _ := place.FromCircuit(c)
	run := func(opt place.Options) *place.Placement {
		pl, err := place.Place(prob, a, opt)
		if err != nil {
			b.Fatal(err)
		}
		return pl
	}
	serial := place.Options{Seed: 1, Effort: 0.15}
	multistart := place.Options{Seed: 1, Effort: 0.15, Starts: 4}
	instrumented := serial
	instrumented.Obs = obs.NewRegistry()
	serialStart := time.Now()
	base := run(serial)
	// Fallback serial reference for a filtered run; the serial
	// sub-benchmark overwrites it with its steady-state per-op time.
	serialPer := time.Since(serialStart)
	if !reflect.DeepEqual(run(instrumented), base) {
		b.Fatal("instrumentation changed the placement")
	}
	for _, bc := range []struct {
		name string
		opt  place.Options
	}{
		{"serial", serial},
		{"multistart-4", multistart},
		{"instrumented", instrumented},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(bc.opt)
			}
			per := b.Elapsed() / time.Duration(b.N)
			switch bc.name {
			case "serial":
				if per > 0 {
					serialPer = per
				}
			case "instrumented":
				// The overhead guard: metrics recording happens once per
				// anneal run, never in the move loop, so this ratio must
				// stay ~1.0. CI records it as obs-overhead-x.
				if per > 0 && serialPer > 0 {
					b.ReportMetric(float64(per)/float64(serialPer), "obs-overhead-x")
				}
			}
		})
	}
}

// benchRouteWorkload places the full-scale regex engine of
// benchPlaceCircuit on a deliberately tight fabric: the router needs
// several negotiation iterations, which is where the incremental engine's
// partial rip-up pays off.
func benchRouteWorkload(b *testing.B) (*arch.Graph, []route.Net) {
	b.Helper()
	c := benchPlaceCircuit(b)
	side := arch.MinGridForBlocks(c.NumBlocks(), c.NumPIs()+len(c.POs), 1.2)
	a := arch.New(side, side, 7)
	g := arch.BuildGraph(a)
	prob, cc := place.FromCircuit(c)
	pl, err := place.Place(prob, a, place.Options{Seed: 1, Effort: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	nets, err := route.NetsForPlacedCircuit(g, c, cc, pl)
	if err != nil {
		b.Fatal(err)
	}
	return g, nets
}

// BenchmarkRoute measures the connection-based router's cold route on the
// multi-net regex workload: the FullRipUp baseline (classic whole-netlist
// PathFinder behaviour) and the incremental engine (congested-connections
// rip-up only), plus an instrumented incremental run checked
// byte-identical to the plain one before timing starts. The incremental
// sub-benchmark reports its measured speed-up over the baseline.
func BenchmarkRoute(b *testing.B) {
	g, nets := benchRouteWorkload(b)
	serialStart := time.Now()
	serial, err := route.Route(g, nets, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Fallback serial reference for a filtered run; the incremental
	// sub-benchmark overwrites it with its steady-state per-op time so the
	// overhead guard compares like with like, not against one cold call.
	serialPer := time.Since(serialStart)
	reg := obs.NewRegistry()
	instr, err := route.Route(g, nets, route.Options{Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(serial, instr) {
		b.Fatal("instrumentation changed the routing result")
	}
	fullStart := time.Now()
	full, err := route.Route(g, nets, route.Options{FullRipUp: true})
	if err != nil {
		b.Fatal(err)
	}
	fullDur := time.Since(fullStart)

	b.Run("fullripup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := route.Route(g, nets, route.Options{FullRipUp: true}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(full.Stats.TotalRerouted()), "reroutes")
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := route.Route(g, nets, route.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(serial.Stats.TotalRerouted()), "reroutes")
		b.ReportMetric(float64(serial.Stats.HeapPushes), "heap-pushes")
		b.ReportMetric(float64(serial.Stats.NodesVisited), "nodes-visited")
		if per := b.Elapsed() / time.Duration(b.N); per > 0 {
			b.ReportMetric(float64(fullDur)/float64(per), "fullrip-speedup-x")
			serialPer = per
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := route.Route(g, nets, route.Options{Obs: reg}); err != nil {
				b.Fatal(err)
			}
		}
		// The overhead guard: stats land in histograms once per Route call,
		// never per node expansion, so this ratio must stay ~1.0. CI records
		// it as obs-overhead-x.
		if per := b.Elapsed() / time.Duration(b.N); per > 0 && serialPer > 0 {
			b.ReportMetric(float64(per)/float64(serialPer), "obs-overhead-x")
		}
	})
}

// BenchmarkGraphBuild measures building the routing-resource graph of
// one (side, channel-width) region — the work every new process does per
// geometry it routes over, since graphs are never stored.
func BenchmarkGraphBuild(b *testing.B) {
	const side, w = 12, 10
	want := arch.BuildGraph(arch.New(side, side, w)).Checksum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if arch.BuildGraph(arch.New(side, side, w)).Checksum() != want {
			b.Fatal("rebuilt graph differs")
		}
	}
}

// BenchmarkPathFinder measures negotiated-congestion routing.
func BenchmarkPathFinder(b *testing.B) {
	c, err := techmap.Map(synth.Optimize(benchNetlist(400, 6)), 4)
	if err != nil {
		b.Fatal(err)
	}
	side := arch.MinGridForBlocks(c.NumBlocks(), c.NumPIs()+len(c.POs), 1.2)
	a := arch.New(side, side, 10)
	g := arch.BuildGraph(a)
	prob, cc := place.FromCircuit(c)
	pl, err := place.Place(prob, a, place.Options{Seed: 1, Effort: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	nets, err := route.NetsForPlacedCircuit(g, c, cc, pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(g, nets, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombinedPlace measures the paper's merge step alone, with
// allocations reported: the combined-placement cost path dedups sink and
// affected sets through array scratch, not per-evaluation maps. Like
// BenchmarkPlaceAnneal, it times a single start beside the 4-start
// multi-start variant.
func BenchmarkCombinedPlace(b *testing.B) {
	modes := miniModes(b)
	maxB, maxIO := 0, 0
	for _, c := range modes {
		if c.NumBlocks() > maxB {
			maxB = c.NumBlocks()
		}
		if io := c.NumPIs() + len(c.POs); io > maxIO {
			maxIO = io
		}
	}
	side := arch.MinGridForBlocks(maxB, maxIO, 1.2)
	a := arch.New(side, side, 8)
	run := func(opt merge.Options) *merge.Result {
		res, err := merge.CombinedPlace("bench", modes, a, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	serial := merge.Options{Seed: 1, Effort: 0.15, Objective: merge.WireLength}
	multistart := merge.Options{Seed: 1, Effort: 0.15, Objective: merge.WireLength, Starts: 4}
	for _, bc := range []struct {
		name string
		opt  merge.Options
	}{
		{"serial", serial},
		{"multistart-4", multistart},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(bc.opt)
			}
		})
	}
}

// BenchmarkWorkloadGenerators measures the three suite generators.
func BenchmarkWorkloadGenerators(b *testing.B) {
	rules := regexgen.BleedingEdgeRules()
	for i := 0; i < b.N; i++ {
		if _, err := regexgen.Generate(rules[0].Name, rules[0].Pattern, regexgen.Options{}); err != nil {
			b.Fatal(err)
		}
		spec := firgen.DefaultSpec(firgen.LowPass, int64(i))
		if _, err := firgen.Generate("f", spec, firgen.Design(spec)); err != nil {
			b.Fatal(err)
		}
		if _, err := mcncgen.Generate(mcncgen.Suite()[0]); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/route"
)

// benchmarkDef is BENCHMARK.json as far as the smoke test checks it.
type benchmarkDef struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkDef
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func toyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 1, seconds: 0.2, trace: trace,
		traceDir: t.TempDir(), workDir: t.TempDir(), size: toy, setupReps: 1,
	}
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload at toy size,
// untraced and traced, and checks that each run is correct and emits every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, mmperf runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, mmperf %q", i, w.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			o := toyOptions(t, w.Name, trace)
			rec := runWorkload(o)
			if !rec.Correct || rec.Attempted < 1 {
				t.Fatalf("%s trace=%v: incorrect run: %v", w.Name, trace, rec.Errors)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace && w.Name != "warm-serve" {
				checkStageCoverage(t, w.Name, o.traceDir)
			}
		}
	}
}

// checkStageCoverage asserts that the self times of the spans under each
// measured compile sum to within 5% of the compile's wall time: the
// benchmark's own "op" wrapper may hold no more than 5% unattributed time.
func checkStageCoverage(t *testing.T, workload, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, workload+"-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatal(err)
	}
	lt := layerTimesOf(evs)
	var wall, stages float64
	for _, root := range spanForest(evs) {
		if root.ev.Name == "op" {
			wall += root.ev.Dur / 1000
			stages += root.ev.Dur/1000 - root.selfUs()/1000
		}
	}
	if lt.ops == 0 || stages < 0.95*wall {
		t.Errorf("%s: stage self times cover %.1f of %.1f ms over %d ops", workload, stages, wall, lt.ops)
	}
	sum := 0.0
	for name, v := range lt.selfMs {
		if name != "op" {
			sum += v
		}
	}
	if math.Abs(sum-stages) > 0.05*wall {
		t.Errorf("%s: per-layer self times sum to %.1f ms, spans under op cover %.1f ms", workload, sum, stages)
	}
}

// pairGroup is a two-mode group whose every LUT is a two-input function of
// primary inputs driving a primary output directly, so any change to any
// LUT row is visible to the oracle's random vectors.
func pairGroup() group {
	mode := func(name string, f0, f1 logic.TT) *netlist.Netlist {
		n := netlist.New(name)
		a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
		n.AddOutput("o0", n.AddGate("g0", f0, a, b))
		n.AddOutput("o1", n.AddGate("g1", f1, c, d))
		return n
	}
	x, y := logic.VarTT(2, 0), logic.VarTT(2, 1)
	return group{Name: "pair", Family: "test", Modes: []*netlist.Netlist{
		mode("m0", x.And(y), x.Xor(y)),
		mode("m1", x.Or(y), x.And(y).Not()),
	}}
}

func compilePair(t *testing.T) opOutcome {
	t.Helper()
	g := pairGroup()
	out, err := compileInto(t.TempDir(), compileOp{name: g.Name, family: g.Family, modes: g.Modes}, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleCatchesFlippedLUTBit(t *testing.T) {
	out := compilePair(t)
	src := pairGroup().Modes[0]
	impl := out.cmp.MDR.PerMode[0]
	cfg, names, err := assembleMDR(out.cmp.Region, impl)
	if err != nil {
		t.Fatal(err)
	}
	g := out.cmp.Region.Graph
	if err := checkConfig(g, cfg, names, src, 1); err != nil {
		t.Fatalf("unmodified configuration rejected: %v", err)
	}
	// A physical LUT repeats its function over the unused input pins, so a
	// single flipped bit makes it read an undriven pin and fails decoding;
	// flipping a row of the function itself (every copy of it) decodes
	// cleanly and only the simulation can catch it. Both must be caught.
	for bi := range impl.Cells.Circuit.Blocks {
		site := impl.Placement.SiteOf[impl.Cells.BlockCell(bi)]
		phys, ff := cfg.GetLUT(site.X, site.Y)
		fn, pins := phys.Shrink()
		var flips []logic.TT
		for r := 0; r < 1<<phys.NumVars; r++ {
			flips = append(flips, phys.Set(r, !phys.Eval(uint(r))))
		}
		for r := 0; r < 1<<fn.NumVars; r++ {
			flips = append(flips, fn.Set(r, !fn.Eval(uint(r))).Expand(phys.NumVars, pins))
		}
		for i, tt := range flips {
			if err := cfg.SetLUT(site.X, site.Y, tt, ff); err != nil {
				t.Fatal(err)
			}
			if checkConfig(g, cfg, names, src, 1) == nil {
				t.Errorf("block %d: flip %d (LUT %s) not caught", bi, i, tt)
			}
		}
		if err := cfg.SetLUT(site.X, site.Y, phys, ff); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOracleCatchesSharedWire(t *testing.T) {
	out := compilePair(t)
	g := out.cmp.Region.Graph
	trees := out.cmp.WireLen.TRoute.Route.Trees
	if err := checkWires(g, trees, 2); err != nil {
		t.Fatalf("legal TRoute result rejected: %v", err)
	}
	// Give a wire of one net to another net, in every mode.
	for i, ti := range trees {
		for _, node := range ti.Nodes {
			if !g.Nodes[node].IsWire() {
				continue
			}
			bad := append([]route.Tree(nil), trees...)
			j := (i + 1) % len(trees)
			bad[j].Nodes = append(append([]int32(nil), trees[j].Nodes...), node)
			bad[j].NodeMasks = append(append([]uint64(nil), trees[j].NodeMasks...), 3)
			if checkWires(g, bad, 2) == nil {
				t.Fatalf("wire node %d shared by nets %d and %d not caught", node, i, j)
			}
			return
		}
	}
	t.Fatal("no routed wire to share")
}

func TestOracleCatchesChangedWarmAnswer(t *testing.T) {
	cold := []byte(`{"region":{"side":4},"baseline_key":"ab","timings":[{"stage":"troute","count":1,"ms":9}]}`)
	warm := []byte(`{"region":{"side":4},"baseline_key":"ab","timings":[{"stage":"artifact-load","count":1,"ms":0.1}]}`)
	want, _, err := withoutTimings(cold)
	if err != nil {
		t.Fatal(err)
	}
	id := &identity{name: "id", want: want}
	if load, err := checkWarm(id, warm); err != nil || load <= 0 {
		t.Fatalf("identical warm answer: load %v, err %v", load, err)
	}
	changed := []byte(`{"region":{"side":5},"baseline_key":"ab","timings":[{"stage":"artifact-load","count":1,"ms":0.1}]}`)
	if _, err := checkWarm(id, changed); err == nil {
		t.Fatal("changed warm answer not caught")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) of each input.
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3}, []float64{1.5, 4, 8}},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.want[0] || m != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
		}
	}
}

func TestInputLatency(t *testing.T) {
	// Medians 2 and 8: the geometric mean weighs the inputs equally,
	// however many samples each has.
	got := inputLatency(map[int][]float64{0: {1, 2, 3}, 1: {8}})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("inputLatency = %v, want 4", got)
	}
}

func TestScaleTimes(t *testing.T) {
	rec := newRecord("w", options{})
	rec.set("latency_ms", 10)
	rec.set("throughput_per_s", 10)
	rec.set("param_bits", 10)
	scaleTimes(rec, 0.5) // a run on a box twice as slow as the reference
	for name, want := range map[string]float64{"latency_ms": 5, "throughput_per_s": 20, "param_bits": 10} {
		if got := rec.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"same", shift(0), "lower", "unchanged"},
		{"slower past bound", shift(20), "lower", "worse"},
		{"faster", shift(-20), "lower", "improved"},
		{"higher is better", shift(-20), "higher", "worse"},
		{"noisy", []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "lower", "unresolved"},
	} {
		if got, _ := verdict(base, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

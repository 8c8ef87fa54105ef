package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// Request knobs of every compile the benchmark makes: the paper's flow
// at reduced annealing effort, one fixed flow seed.
const (
	effort   = 0.15
	flowSeed = 1
)

// compileOp is one measured compile: a group of modes, cold or as a delta
// against a baseline.
type compileOp struct {
	name, family string
	modes        []*netlist.Netlist
	baselineKey  string
	// storeFrom, when set, is copied to be the op's store; otherwise the
	// op starts from an empty one. Either way each op owns its store, so
	// a repeated op never finds its own result from an earlier pass.
	storeFrom string
}

// opOutcome is what one compile produced and cost.
type opOutcome struct {
	op           int // index of the compileOp
	latency, cpu time.Duration
	res          *service.Result
	cmp          *flow.Comparison
	stats        flow.Stats
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// compileInto runs one compile over a store in dir and verifies it. The
// trace and registry, when non-nil, receive the compile's spans and work
// metrics; the "op" and "verify" spans are the benchmark's own.
func compileInto(dir string, op compileOp, tr *obs.Trace, reg *obs.Registry, checkSeed int64) (opOutcome, error) {
	var out opOutcome
	st, err := store.Open(dir, 0)
	if err != nil {
		return out, err
	}
	cache := flow.NewCacheWithStore(st)
	req := &service.CompileRequest{Effort: effort, Seed: flowSeed, BaselineKey: op.baselineKey}
	sp := tr.Start("op", "input", op.name, "family", op.family)
	c0, t0 := cpuTime(), time.Now()
	res, cmp, err := service.CompileNetlistsEnv(op.modes, req, service.Env{Cache: cache, Trace: tr, Obs: reg})
	out.latency, out.cpu = time.Since(t0), cpuTime()-c0
	sp.End()
	if err != nil {
		return out, fmt.Errorf("%s: %w", op.name, err)
	}
	out.res, out.cmp, out.stats = res, cmp, cache.Stats()
	defer tr.Start("verify").End()
	if err := checkComparison(op.modes, cmp, checkSeed); err != nil {
		return out, fmt.Errorf("%s: %w", op.name, err)
	}
	return out, nil
}

// runOp runs one measured op in a private store under the work dir.
func runOp(o options, op compileOp, tr *obs.Trace, reg *obs.Registry) (opOutcome, error) {
	dir, err := os.MkdirTemp(o.workDir, "op-")
	if err != nil {
		return opOutcome{}, err
	}
	defer os.RemoveAll(dir)
	if op.storeFrom != "" {
		if err := copyDir(op.storeFrom, dir); err != nil {
			return opOutcome{}, err
		}
	}
	return compileInto(dir, op, tr, reg, o.seed)
}

func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}

// runCold is the cold-compile workload: every corpus group compiled from
// an empty store. Set-up generates the corpus and warms the process up
// with one toy-size compile, so that the first measured op (a different
// one at each seed) does not also pay for the process's first compile,
// and so that set-up is long enough to time steadily.
func runCold(o options, rec *record) error {
	var ops []compileOp
	err := timeSetup(o, rec, func() error {
		groups, err := coldGroups(o.size)
		if err != nil {
			return err
		}
		ops = make([]compileOp, len(groups))
		for i, g := range groups {
			ops[i] = compileOp{name: g.Name, family: g.Family, modes: g.Modes}
		}
		warm, err := coldGroups(toy)
		if err != nil {
			return err
		}
		_, err = runOp(o, compileOp{name: warm[0].Name, family: warm[0].Family, modes: warm[0].Modes}, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	return runPasses(o, rec, ops)
}

// runDelta is the delta-eco workload: set-up compiles one baseline group
// per family into a store; each op recompiles one edit of a baseline
// against its BaselineKey over a copy of that store.
func runDelta(o options, rec *record) error {
	var base string
	var ops []compileOp
	err := timeSetup(o, rec, func() error {
		if base != "" {
			if err := os.RemoveAll(base); err != nil {
				return err
			}
		}
		baselines, edits, err := deltaSet(o.size)
		if err != nil {
			return err
		}
		base, err = os.MkdirTemp(o.workDir, "baselines-")
		if err != nil {
			return err
		}
		keys := make([]string, len(baselines))
		for i, g := range baselines {
			out, err := compileInto(base, compileOp{name: g.Name, family: g.Family, modes: g.Modes}, nil, nil, o.seed)
			if err != nil {
				return fmt.Errorf("baseline %w", err)
			}
			keys[i] = out.res.BaselineKey
		}
		ops = ops[:0]
		for _, e := range edits {
			b := baselines[e.Baseline]
			ops = append(ops, compileOp{name: e.Name, family: b.Family, modes: e.Group.Modes, baselineKey: keys[e.Baseline], storeFrom: base})
		}
		return nil
	})
	if err != nil {
		return err
	}
	return runPasses(o, rec, ops)
}

// timeSetup runs a workload's set-up at least o.setupReps times, and
// keeps repeating a cheap one (up to 25 reps) until half a second has
// gone, so that even a millisecond set-up has a steady median. Each rep
// redoes all of it; the last one's products are kept.
func timeSetup(o options, rec *record, setup func() error) error {
	var times []float64
	start := time.Now()
	for i := 0; i < o.setupReps || i < 25 && time.Since(start) < time.Second/2; i++ {
		o.speed.sample()
		sp := o.tr.Start("setup", "rep", strconv.Itoa(i))
		t0 := time.Now()
		err := setup()
		times = append(times, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	rec.set("setup_s", median(times))
	return nil
}

// runPasses measures whole passes over ops: each pass runs every op once,
// in an order drawn from the run seed, so every run measures the same
// work. Passes continue while the next one is expected to end within
// o.seconds (at least one runs). A traced run then repeats the same
// passes, in the same orders, with the trace and registry attached.
func runPasses(o options, rec *record, ops []compileOp) error {
	start := time.Now()
	untraced, err := passes(o, rec, ops, nil, nil, func(done int, last time.Duration) bool {
		return done == 0 || time.Since(start)+last/2 < time.Duration(o.seconds*float64(time.Second))
	})
	if err != nil {
		return err
	}
	rec.Passes = len(untraced) / len(ops)
	if !o.trace {
		compileEndToEnd(rec, untraced)
		return nil
	}
	reg := obs.NewRegistry()
	traced, err := passes(o, rec, ops, o.tr, reg, func(done int, _ time.Duration) bool { return done < rec.Passes })
	if err != nil {
		return err
	}
	return compileLayers(o, rec, untraced, traced, reg)
}

// passes runs passes while more(passesDone, lastPassDuration) holds and
// returns the outcomes of the successful ops.
func passes(o options, rec *record, ops []compileOp, tr *obs.Trace, reg *obs.Registry, more func(int, time.Duration) bool) ([]opOutcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var outs []opOutcome
	var last time.Duration
	for p := 0; more(p, last); p++ {
		t0 := time.Now()
		for _, i := range rng.Perm(len(ops)) {
			rec.Attempted++
			o.speed.sample()
			out, err := runOp(o, ops[i], tr, reg)
			if err != nil {
				rec.fail("%v", err)
				continue
			}
			out.op = i
			outs = append(outs, out)
			if tr == nil {
				rec.Ops = append(rec.Ops, opSample{Name: ops[i].name, Family: ops[i].family, Ms: ms(out.latency)})
			}
			fmt.Fprintf(os.Stderr, "mmperf: %s pass %d %-40s %8.1f ms\n", rec.Workload, p+1, ops[i].name, ms(out.latency))
		}
		last = time.Since(t0)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no operation succeeded")
	}
	return outs, nil
}

// compileEndToEnd derives the end-to-end metrics of a compile workload.
func compileEndToEnd(rec *record, outs []opOutcome) {
	var lat []float64
	byInput := map[int][]float64{}
	var busy, cpu time.Duration
	for _, out := range outs {
		lat = append(lat, ms(out.latency))
		byInput[out.op] = append(byInput[out.op], ms(out.latency))
		busy += out.latency
		cpu += out.cpu
	}
	rec.Samples = len(lat)
	rec.set("latency_ms", inputLatency(byInput))
	rec.set("latency_p90_ms", p90(lat))
	rec.set("throughput_per_s", float64(len(outs))/busy.Seconds())
	rec.set("cpu_ms_per_op", ms(cpu)/float64(len(outs)))
	rec.set("peak_rss_mb", peakRSSMiB())
	setQoR(rec, distinctResults(outs))
	for k, v := range workCounters(outs) {
		rec.Counters[k] = v
	}
}

// distinctResults is one result per op, in op order, so that float sums
// over them repeat bit for bit whatever order the run drew.
func distinctResults(outs []opOutcome) []*service.Result {
	byOp := map[int]*service.Result{}
	n := 0
	for _, out := range outs {
		byOp[out.op] = out.res
		n = max(n, out.op+1)
	}
	var results []*service.Result
	for i := 0; i < n; i++ {
		if r, ok := byOp[i]; ok {
			results = append(results, r)
		}
	}
	return results
}

// setQoR emits the paper's outputs over one pass of distinct inputs:
// summed WireLength-objective parameterised bits and region channel
// widths, and the geometric means of the MDR/DCS reconfiguration-bit and
// DCS/MDR wirelength ratios.
func setQoR(rec *record, results []*service.Result) {
	var bits, width float64
	var speedup, wire []float64
	for _, r := range results {
		bits += float64(r.DCS.ParamRoutingBits)
		width += float64(r.Region.ChannelW)
		speedup = append(speedup, r.SpeedupVsMDR)
		wire = append(wire, r.WireVsMDR)
	}
	rec.set("param_bits", bits)
	rec.set("channel_width", width)
	rec.set("reconfig_speedup_x", geomean(speedup))
	rec.set("wire_ratio", geomean(wire))
	for _, k := range []string{"param_bits", "channel_width", "reconfig_speedup_x", "wire_ratio"} {
		rec.Counters[k] = rec.Metrics[k].Value
	}
}

// workCounters are the deterministic per-op means of the flow's own work
// counts: the final routes' router statistics, the cache traffic and the
// delta path's reuse. Sums of integers are exact in any order, so the
// means repeat bit for bit.
func workCounters(outs []opOutcome) map[string]float64 {
	c := map[string]float64{}
	var deltas, used float64
	for _, out := range outs {
		for _, dcs := range []*flow.DCSResult{out.cmp.EdgeMatch, out.cmp.WireLen} {
			s := dcs.TRoute.Route.Stats
			c["troute.iterations"] += float64(s.Iterations)
			c["troute.heap_pushes"] += float64(s.HeapPushes)
			c["troute.nodes_visited"] += float64(s.NodesVisited)
			c["troute.reroutes"] += float64(s.TotalRerouted())
		}
		for _, m := range out.cmp.MDR.PerMode {
			s := m.Routing.Stats
			c["route.iterations"] += float64(s.Iterations)
			c["route.heap_pushes"] += float64(s.HeapPushes)
			c["route.nodes_visited"] += float64(s.NodesVisited)
		}
		st := out.stats
		c["place.anneals"] += float64(st.PlaceAnneals)
		c["graph.builds"] += float64(st.GraphBuilds)
		c["graph.store_loads"] += float64(st.GraphLoads)
		c["store.puts"] += float64(st.Store.Puts)
		c["store.bytes_written"] += float64(st.Store.BytesWritten)
		c["store.hits"] += float64(st.Store.Hits)
		c["store.bytes_read"] += float64(st.Store.BytesRead)
		if d := out.res.Delta; d != nil {
			deltas++
			if d.UsedBaseline {
				used++
			}
			c["delta.warm_route_nets"] += float64(d.WarmRouteNets)
			c["delta.place_transfers"] += float64(d.PlaceTransfers)
		}
	}
	for k := range c {
		c[k] /= float64(len(outs))
	}
	if deltas > 0 {
		c["delta.used_ratio"] = used / deltas
	}
	return c
}

// compileLayers derives the per-layer metrics of a traced compile run.
func compileLayers(o options, rec *record, untraced, traced []opOutcome, reg *obs.Registry) error {
	evs, err := exportChrome(o.tr, 1)
	if err != nil {
		return err
	}
	if err := saveTrace(o, rec, evs); err != nil {
		return err
	}
	lt := layerTimesOf(evs)
	if lt.ops != len(traced) {
		return fmt.Errorf("trace holds %d op spans for %d traced ops", lt.ops, len(traced))
	}
	n := float64(len(traced))
	for _, d := range perLayer {
		rec.set(d.Name, 0)
	}
	for _, span := range []string{"troute", "route", "size", "place", "merge", "tplace", "graph", "synth", "bitstream", "compile"} {
		rec.set(span+".self_ms", lt.selfMs[span]/n)
	}
	rec.set("verify.self_ms", lt.verifyMs/n)
	calls := float64(lt.calls["troute"])
	rec.set("troute.calls", calls/n)
	if calls > 0 {
		rec.set("troute.useful_ratio", 2*n/calls)
	}
	rec.set("troute.wasted_ms", lt.wastedMs/n)
	rec.set("size.probes", float64(lt.probes)/n)
	rec.set("merge.calls", float64(lt.calls["merge"])/n)
	counters := workCounters(traced)
	sums, err := registrySums(reg)
	if err != nil {
		return err
	}
	counters["anneal.moves"] = sums["mm_anneal_moves_sum"] / n
	counters["route.other_heap_pushes"] = sums["mm_route_heap_pushes_sum"]/n - counters["route.heap_pushes"] - counters["troute.heap_pushes"]
	for k, v := range counters {
		rec.set(k, v)
		rec.Counters[k] = v
	}
	var load float64
	var tracedMs, untracedMs float64
	for i, out := range traced {
		load += stageMs(out.res, "artifact-load")
		tracedMs += ms(out.latency)
		untracedMs += ms(untraced[i].latency)
	}
	rec.set("artifact_load.self_ms", load/n)
	rec.set("trace_overhead_x", tracedMs/untracedMs)
	rec.Samples = len(traced)
	return nil
}

// stageMs reads one stage's time from a result's timings.
func stageMs(res *service.Result, stage string) float64 {
	for _, t := range res.Timings {
		if t.Stage == stage {
			return t.Millis
		}
	}
	return 0
}

// registrySums reads the *_sum and *_total samples of a registry's
// Prometheus exposition — the benchmark reads the program's metrics from
// outside, the way a scraper would.
func registrySums(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			sums[name] = v
		}
	}
	return sums, nil
}

// saveTrace writes the run's Chrome trace under the trace directory.
func saveTrace(o options, rec *record, evs []chromeEvent) error {
	path, err := writeChrome(o.traceDir, fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed), evs)
	if err == nil {
		fmt.Fprintf(os.Stderr, "mmperf: wrote %s (%d spans)\n", path, len(evs))
	}
	return err
}

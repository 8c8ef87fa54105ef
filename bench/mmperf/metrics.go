package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one emitted metric. Names, units and directions match
// BENCHMARK.json (the smoke test asserts it); the bounds live only there.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the compile service sees. Every
// workload emits all of them with -trace 0. Latency, throughput and CPU
// cover the measured operations only (a compile call, or one HTTP request
// for warm-serve), and every time among them is scaled to the reference
// speed (calib.go); the four QoR metrics are the paper's outputs summed or
// averaged over the distinct inputs of one pass, so they repeat exactly
// and a speed-up cannot quietly cost quality.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"throughput_per_s", "ops/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"param_bits", "bits", "lower"},
	{"channel_width", "tracks", "lower"},
	{"reconfig_speedup_x", "x", "higher"},
	{"wire_ratio", "x", "lower"},
}

// perLayer are the traced run's metrics, named after the flow's modules
// and spans, each a mean per measured operation. Which end-to-end metric
// each should move, on which workload, is tabled in bench/README.md.
// Every workload emits all of them; a layer a workload does not reach
// reads 0.
var perLayer = []metricDef{
	{"troute.self_ms", "ms", "lower"},
	{"troute.calls", "count", "lower"},
	{"troute.useful_ratio", "ratio", "higher"},
	{"troute.wasted_ms", "ms", "lower"},
	{"troute.iterations", "count", "lower"},
	{"troute.heap_pushes", "count", "lower"},
	{"troute.nodes_visited", "count", "lower"},
	{"troute.reroutes", "count", "lower"},
	{"route.self_ms", "ms", "lower"},
	{"route.iterations", "count", "lower"},
	{"route.heap_pushes", "count", "lower"},
	{"route.nodes_visited", "count", "lower"},
	{"route.other_heap_pushes", "count", "lower"},
	{"size.self_ms", "ms", "lower"},
	{"size.probes", "count", "lower"},
	{"place.self_ms", "ms", "lower"},
	{"place.anneals", "count", "lower"},
	{"merge.self_ms", "ms", "lower"},
	{"merge.calls", "count", "lower"},
	{"tplace.self_ms", "ms", "lower"},
	{"anneal.moves", "count", "lower"},
	{"graph.self_ms", "ms", "lower"},
	{"graph.builds", "count", "lower"},
	{"graph.store_loads", "count", "lower"},
	{"synth.self_ms", "ms", "lower"},
	{"bitstream.self_ms", "ms", "lower"},
	{"compile.self_ms", "ms", "lower"},
	{"artifact_load.self_ms", "ms", "lower"},
	{"store.puts", "count", "lower"},
	{"store.bytes_written", "bytes", "lower"},
	{"store.hits", "count", "higher"},
	{"store.bytes_read", "bytes", "lower"},
	{"delta.used_ratio", "ratio", "higher"},
	{"delta.warm_route_nets", "count", "higher"},
	{"delta.place_transfers", "count", "higher"},
	{"server.cpu_ms_per_req", "ms", "lower"},
	{"server.other_ms_p50", "ms", "lower"},
	{"server.artifact_hit_ratio", "ratio", "higher"},
	{"client.cpu_ms_per_req", "ms", "lower"},
	{"verify.self_ms", "ms", "lower"},
	{"trace_overhead_x", "x", "lower"},
}

// metric is one emitted value, in the contract's {"value","unit"} form.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opSample is one measured operation.
type opSample struct {
	Name   string  `json:"name"`
	Family string  `json:"family,omitempty"`
	Ms     float64 `json:"ms"`
}

// record is everything one run measured. The last stdout line of a run
// is its contract summary (summary()); -record and -out keep the whole
// record for `mmperf compare`.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Counters are the deterministic values of the run — QoR and the
	// flow's work counters, per pass or per operation — which repeat
	// exactly across runs of the same code; compare diffs them exactly.
	Counters map[string]float64 `json:"counters"`
	// Samples is the number of latency samples behind the percentiles.
	Samples int        `json:"samples"`
	Passes  int        `json:"passes,omitempty"`
	Ops     []opSample `json:"ops,omitempty"`
	WallS   float64    `json:"wall_s"`
	// CalMs is the run's median calibration-kernel time; the reported
	// times are raw times times calRefMs/CalMs.
	CalMs float64 `json:"cal_ms"`
}

func newRecord(workload string, o options) *record {
	return &record{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: map[string]metric{}, Counters: map[string]float64{},
	}
}

// fail records one failed operation or check.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// set emits a metric, taking its unit from the tables above.
func (r *record) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("mmperf: undeclared metric " + name)
}

// summary is the contract's last stdout line.
func (r *record) summary() map[string]any {
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	}
}

func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printTable writes the run's metrics by name with units.
func printTable(w io.Writer, r *record) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed %d: %d attempted, %d failed, %d latency samples, %d passes, %.1f s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Samples, r.Passes, r.WallS)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-14s %-26s %14.4f %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-14s ERROR %s\n", r.Workload, e)
	}
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method, including its extrapolation for tiny samples), so spreads read
// the same here as in any external check.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(2), q(3)
}

// p90 is the nearest-rank 90th percentile. Below 10 samples it is the
// slowest sample, so on a one-pass compile workload it reads as the
// slowest operation. The tail metric is p90, not p99: warm-serve's p99
// spread 18-23% over ten runs of the same code, as wide as the bound.
func p90(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

// inputLatency is latency_ms: each input's median latency over its
// samples, then the geometric mean over the inputs, so that every input
// weighs the same however long it takes.
func inputLatency(byInput map[int][]float64) float64 {
	var meds []float64
	for _, v := range byInput {
		meds = append(meds, median(v))
	}
	sort.Float64s(meds) // a fixed summation order
	return geomean(meds)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

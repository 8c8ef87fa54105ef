// Package obs is the repo's dependency-free observability substrate: a
// Prometheus-compatible metrics registry (counters, gauges, histograms
// with fixed deterministic bucket bounds) plus a lightweight span tracer
// (trace.go) that renders Chrome trace-event JSON and per-stage timing
// breakdowns.
//
// Two rules make it safe to wire through the hot paths:
//
//   - A nil *Registry (or *Trace) is fully valid and near-zero cost:
//     every constructor returns a nil handle, and every method on a nil
//     handle is a no-op guarded by a single pointer check. Disabled
//     instrumentation therefore costs one branch per *call site*, and
//     call sites sit at iteration/run boundaries — never inside the A*
//     expansion loop or the annealing move loop.
//   - Instrumentation must never perturb results. Nothing in this
//     package feeds back into any algorithm: handles are write-only
//     from the instrumented code's point of view, and recording order
//     cannot influence values (atomics only). The byte-identity and
//     golden-hash suites run with instrumentation enabled to prove it.
//
// Naming conventions (see ARCHITECTURE.md "Observability"): families are
// prefixed mm_, counters end in _total, durations are in seconds, and
// histogram bucket bounds are fixed at registration (never adapted to
// observed data) so two processes always expose merge-able series.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ExpBuckets returns n exponentially spaced histogram bounds:
// start, start*factor, ..., start*factor^(n-1). Bounds are deterministic
// by construction — callers must never derive them from observed values.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets spans 1ms to ~524s in powers of two — wide enough for
// both a warm artifact hit and a full-effort cold compile.
var DurationBuckets = ExpBuckets(0.001, 2, 20)

// WorkBuckets spans 1 to ~4.2M in powers of four, for work counters
// (moves, reroutes, heap pushes) whose magnitude varies by workload size.
var WorkBuckets = ExpBuckets(1, 4, 12)

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text
// exposition format (WriteText). All methods are safe for concurrent use.
// A nil *Registry is valid: constructors return nil handles whose methods
// are no-ops, so instrumented code needs no enabled/disabled branches.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	onScrape []func()
	// scrape serialises WriteText, so the families of one exposition
	// read the values its own OnScrape hooks refreshed.
	scrape sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnScrape registers a hook run at the start of every WriteText call —
// the place to refresh func-backed families from one coherent snapshot
// (RegisterSnapshot takes its one snapshot per scrape there).
func (r *Registry) OnScrape(f func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, f)
	r.mu.Unlock()
}

// family is one metric family: a name, help text, a kind, a label-key
// schema, and its series (one per label-value combination).
type family struct {
	name, help string
	kind       kind
	keys       []string
	bounds     []float64 // histograms only

	mu    sync.Mutex
	byKey map[string]*series
	order []*series

	value func() float64 // func-backed families render this instead of series
}

// series is one (family, label values) time series. Counter and gauge
// values live in bits as float64 bits; histograms use counts/sumBits/count.
type series struct {
	labels  []string
	bits    atomic.Uint64
	counts  []atomic.Uint64 // per-bucket (non-cumulative); rendered cumulative
	inf     atomic.Uint64   // observations above the last bound
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// lookup returns the family named name, creating it on first use. A
// re-registration with a different kind, label schema or bucket bounds is
// a programming error and panics: silently returning mismatched handles
// would corrupt the exposition.
func (r *Registry) lookup(name, help string, k kind, keys []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, keys: keys, bounds: bounds, byKey: map[string]*series{}}
		r.byName[name] = f
		return f
	}
	if f.kind != k || len(f.keys) != len(keys) || len(f.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
	}
	for i := range keys {
		if f.keys[i] != keys[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with different label keys", name))
		}
	}
	for i := range bounds {
		if f.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with different buckets", name))
		}
	}
	return f
}

// with returns the series of the given label values, creating it on
// first use. Series are rendered in creation order per family.
func (f *family) with(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := ""
	for _, v := range values {
		key += v + "\x00"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			s.counts = make([]atomic.Uint64, len(f.bounds))
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	addFloat(&c.s.bits, v)
}

// Gauge is a value that can go up and down. Nil-safe.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add adds v (negative to decrement).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.s.bits, v)
}

// Histogram counts observations into fixed buckets. Nil-safe.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	if i < len(h.bounds) {
		h.s.counts[i].Add(1)
	} else {
		h.s.inf.Add(1)
	}
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// CounterVec is a counter family with labels. Nil-safe.
type CounterVec struct{ f *family }

// With returns the counter of the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(values)}
}

// HistogramVec is a histogram family with labels. Nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram of the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.f.with(values), bounds: v.f.bounds}
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, keys, nil)}
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.lookup(name, help, kindCounter, nil, nil).with(nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.lookup(name, help, kindGauge, nil, nil).with(nil)}
}

// HistogramVec registers (or finds) a labeled histogram family with the
// given fixed bucket bounds (ascending).
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, keys, bounds)}
}

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, kindHistogram, nil, bounds)
	return &Histogram{s: f.with(nil), bounds: f.bounds}
}

// CounterFunc registers a counter whose value is read at scrape time —
// the bridge for cumulative counts maintained elsewhere (the snapshot
// structs' tagged fields, see RegisterSnapshot).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindCounter, nil, nil).value = f
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindGauge, nil, nil).value = f
}

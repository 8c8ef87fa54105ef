package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace collects a tree of timed spans for one compile (or any other
// operation). It is deliberately minimal: spans nest by wall-clock
// containment on a single logical thread — the flow's stages run
// serially, so start/end order is the tree. A nil *Trace is valid and
// every method on it (and on the nil *Span it hands out) is a no-op, so
// tracing costs one pointer check per stage boundary when disabled.
//
// Trace is safe for use from one goroutine at a time. Stages that fan
// out internally (parallel route batches, multi-start anneals) do not
// open spans from their workers — the enclosing stage span covers them,
// and the worker-level detail lands in the metrics registry instead.
// Work that runs whole stages concurrently (the flow's speculative retry
// attempts) records each strand into its own Fork and Adopts the forks
// back once they have been joined; each adopted fork is a thread of its
// own in the Chrome export.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	depth int
	spans []*Span
	tids  int // threads adopted so far; the trace's own spans are tid 1
}

// Span is one timed region with an optional set of string labels.
type Span struct {
	t      *Trace
	name   string
	depth  int
	start  time.Duration // offset from trace epoch
	dur    time.Duration
	keys   []string
	values []string
	done   bool
	tid    int // Chrome thread id; 0 renders as the trace's own thread 1
}

// NewTrace returns an empty trace whose epoch is now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// Start opens a span. kv is an even-length list of label key/value
// pairs (e.g. "mode", "2"). Close it with End; spans must be ended in
// LIFO order (they time serial stages, not concurrent work).
func (t *Trace) Start(name string, kv ...string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{t: t, name: name, depth: t.depth, start: time.Since(t.epoch)}
	for i := 0; i+1 < len(kv); i += 2 {
		s.keys = append(s.keys, kv[i])
		s.values = append(s.values, kv[i+1])
	}
	t.depth++
	t.spans = append(t.spans, s)
	return s
}

// Fork returns an empty trace sharing t's epoch whose spans nest below
// t's currently open spans, for one strand of concurrent work: the fork
// is used by that strand alone and merged back with Adopt. The fork of a
// nil trace is nil.
func (t *Trace) Fork() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{epoch: t.epoch, depth: t.depth}
}

// Adopt appends the spans of a joined fork to t on a new Chrome thread,
// labelling each with kv (an even-length key/value list). The fork must
// no longer be in use. Adopting nil is a no-op.
func (t *Trace) Adopt(f *Trace, kv ...string) {
	if t == nil || f == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tids++
	for _, s := range f.spans {
		s.t, s.tid = t, t.tids+1
		for i := 0; i+1 < len(kv); i += 2 {
			s.keys = append(s.keys, kv[i])
			s.values = append(s.values, kv[i+1])
		}
		t.spans = append(t.spans, s)
	}
}

// SetLabel attaches (or overwrites) a label on an open or closed span.
func (s *Span) SetLabel(k, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i, key := range s.keys {
		if key == k {
			s.values[i] = v
			return
		}
	}
	s.keys = append(s.keys, k)
	s.values = append(s.values, v)
}

// End closes the span. Safe to call more than once; only the first
// call records the duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	s.dur = time.Since(s.t.epoch) - s.start
	if s.t.depth > 0 {
		s.t.depth--
	}
}

// chromeEvent is one Chrome trace-event ("complete" phase). Times are
// microseconds per the trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes the span tree as Chrome trace-event JSON (the
// array form), loadable in chrome://tracing or Perfetto. Open spans are
// rendered as if they ended now.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	now := time.Since(t.epoch)
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		dur := s.dur
		if !s.done {
			dur = now - s.start
		}
		ev := chromeEvent{
			Name: s.name,
			Ph:   "X",
			Pid:  1,
			Tid:  max(s.tid, 1),
			Ts:   float64(s.start.Microseconds()),
			Dur:  float64(dur.Microseconds()),
		}
		if len(s.keys) > 0 {
			ev.Args = map[string]string{}
			for i, k := range s.keys {
				ev.Args[k] = s.values[i]
			}
		}
		events = append(events, ev)
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}

// StageTiming is one row of a per-stage timing breakdown: how many
// spans of this stage ran and their total wall time.
type StageTiming struct {
	Stage  string  `json:"stage"`
	Count  int     `json:"count"`
	Millis float64 `json:"ms"`
}

// Stages aggregates spans by name into a per-stage breakdown, ordered
// by first occurrence. Only spans at the shallowest informative depth
// are counted, so nested detail (per-probe graph builds inside sizing)
// doesn't double-book time: if the shallowest depth holds a single
// all-enclosing root span (the "compile" wrapper) and deeper spans
// exist, aggregation happens one level down instead.
func (t *Trace) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	minDepth := t.spans[0].depth
	maxDepth := minDepth
	for _, s := range t.spans {
		if s.depth < minDepth {
			minDepth = s.depth
		}
		if s.depth > maxDepth {
			maxDepth = s.depth
		}
	}
	names := map[string]bool{}
	n := 0
	for _, s := range t.spans {
		if s.depth == minDepth {
			names[s.name] = true
			n++
		}
	}
	if n == 1 && len(names) == 1 && maxDepth > minDepth {
		minDepth++
	}
	byName := map[string]*StageTiming{}
	var order []string
	for _, s := range t.spans {
		if s.depth != minDepth || !s.done {
			continue
		}
		st := byName[s.name]
		if st == nil {
			st = &StageTiming{Stage: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		st.Count++
		st.Millis += float64(s.dur.Nanoseconds()) / 1e6
	}
	out := make([]StageTiming, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// SpanNames returns the distinct span names recorded, sorted — used by
// tests asserting stage coverage.
func (t *Trace) SpanNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	set := map[string]bool{}
	for _, s := range t.spans {
		set[s.name] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

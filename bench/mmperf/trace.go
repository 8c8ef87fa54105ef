package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// The traced run records spans from the benchmark's side of each call:
// "setup", "op" (one compile call, labelled with its input), "verify" and
// "http" (one warm-serve request). The flow's own stage spans (synth,
// size, graph, place, route, merge, tplace, troute, bitstream, and the
// service's compile/artifact-load) nest under "op" because the benchmark
// hands its trace to service.Env. Spans stay in memory and are written
// as one Chrome trace per workload when the run ends; the per-layer self
// times are computed from that exported JSON.

// chromeEvent is one event of obs.Trace.WriteChrome's trace-event JSON.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

// exportChrome renders a trace through obs.WriteChrome and decodes the
// events back, tagging them with a thread id (warm-serve keeps one trace
// per client connection; an obs.Trace nests spans of one thread only).
func exportChrome(tr *obs.Trace, tid int) ([]chromeEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, err
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return nil, fmt.Errorf("decode chrome trace: %w", err)
	}
	for i := range evs {
		evs[i].Tid = tid
	}
	return evs, nil
}

func writeChrome(dir, name string, evs []chromeEvent) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(evs)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// span is one event with the spans nested inside it.
type span struct {
	ev       chromeEvent
	children []*span
}

func (s *span) selfUs() float64 {
	self := s.ev.Dur
	for _, c := range s.children {
		self -= c.ev.Dur
	}
	return max(self, 0)
}

// spanForest rebuilds the span trees from events. obs.Trace emits spans
// in start order and nests them strictly (one thread's serial stages), so
// a span is the child of the innermost open span it starts inside.
func spanForest(evs []chromeEvent) []*span {
	var roots []*span
	stacks := map[int][]*span{}
	for _, ev := range evs {
		st := stacks[ev.Tid]
		for len(st) > 0 && ev.Ts >= st[len(st)-1].ev.Ts+st[len(st)-1].ev.Dur {
			st = st[:len(st)-1]
		}
		s := &span{ev: ev}
		if len(st) == 0 {
			roots = append(roots, s)
		} else {
			p := st[len(st)-1]
			p.children = append(p.children, s)
		}
		stacks[ev.Tid] = append(st, s)
	}
	return roots
}

// layerTimes is the per-layer breakdown of the measured operations.
type layerTimes struct {
	ops      int
	selfMs   map[string]float64 // span name -> self time summed over ops
	calls    map[string]int     // span name -> spans under ops
	wastedMs float64            // troute time not in each op's final per-objective route
	probes   int                // graph builds inside region sizing
	verifyMs float64
}

// layerTimesOf sums self times per span name over every "op" subtree.
func layerTimesOf(evs []chromeEvent) layerTimes {
	lt := layerTimes{selfMs: map[string]float64{}, calls: map[string]int{}}
	for _, root := range spanForest(evs) {
		switch root.ev.Name {
		case "op":
			lt.ops++
			lt.addOp(root)
		case "verify":
			lt.verifyMs += root.selfUs() / 1000
		}
	}
	return lt
}

func (lt *layerTimes) addOp(op *span) {
	// A troute belongs to the objective of the merge before it; only the
	// last troute of each objective produced the result, every earlier one
	// is a failed attempt of the widening or delta-fallback loops.
	var trouteMs []float64
	lastOf := map[string]int{}
	objective := ""
	var walk func(s *span, inSize bool)
	walk = func(s *span, inSize bool) {
		name := s.ev.Name
		lt.selfMs[name] += s.selfUs() / 1000
		lt.calls[name]++
		switch name {
		case "merge":
			objective = s.ev.Args["objective"]
		case "troute":
			lastOf[objective] = len(trouteMs)
			trouteMs = append(trouteMs, s.ev.Dur/1000)
		case "graph":
			if inSize {
				lt.probes++
			}
		}
		for _, c := range s.children {
			walk(c, inSize || name == "size")
		}
	}
	walk(op, false)
	useful := map[int]bool{}
	for _, i := range lastOf {
		useful[i] = true
	}
	for i, d := range trouteMs {
		if !useful[i] {
			lt.wastedMs += d
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("mm_x_total", "x").Inc()
	r.CounterVec("mm_xv_total", "x", "k").With("v").Add(3)
	r.Gauge("mm_g", "g").Set(1)
	r.Histogram("mm_h", "h", WorkBuckets).Observe(5)
	r.HistogramVec("mm_hv", "h", WorkBuckets, "k").With("v").Observe(5)
	r.CounterFunc("mm_cf_total", "cf", func() float64 { return 1 })
	r.GaugeFunc("mm_gf", "gf", func() float64 { return 1 })
	r.OnScrape(func() { t.Fatal("hook ran on nil registry") })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mm_ops_total", "ops")
	c.Inc()
	c.Add(2)
	g := r.Gauge("mm_level", "level")
	g.Set(10)
	g.Add(-3)
	h := r.Histogram("mm_work", "work", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mm_ops_total counter",
		"mm_ops_total 3",
		"# TYPE mm_level gauge",
		"mm_level 7",
		"# TYPE mm_work histogram",
		`mm_work_bucket{le="1"} 1`,
		`mm_work_bucket{le="10"} 3`,
		`mm_work_bucket{le="100"} 4`,
		`mm_work_bucket{le="+Inf"} 5`,
		"mm_work_sum 560.5",
		"mm_work_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateText(buf.Bytes()); err != nil {
		t.Fatalf("own output fails validation: %v", err)
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("mm_req_total", "reqs", "path")
	v.With("cold").Add(2)
	v.With(`we"ird\`).Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `mm_req_total{path="cold"} 2`) {
		t.Errorf("missing cold series:\n%s", out)
	}
	if !strings.Contains(out, `mm_req_total{path="we\"ird\\"} 1`) {
		t.Errorf("missing escaped series:\n%s", out)
	}
	st, err := ValidateText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Series != 2 {
		t.Fatalf("got %d series, want 2", st.Series)
	}
}

func TestFuncMetricsAndOnScrape(t *testing.T) {
	r := NewRegistry()
	val := 0.0
	r.CounterFunc("mm_snap_total", "snapshot-backed", func() float64 { return val })
	hookRan := false
	r.OnScrape(func() { hookRan = true; val = 42 })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("OnScrape hook did not run")
	}
	if !strings.Contains(buf.String(), "mm_snap_total 42") {
		t.Fatalf("func metric stale:\n%s", buf.String())
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mm_a_total", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registration with different kind did not panic")
		}
	}()
	r.Gauge("mm_a_total", "a")
}

func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mm_conc_total", "c")
	h := r.Histogram("mm_conc_work", "h", WorkBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mm_conc_total 8000") {
		t.Fatalf("lost counter increments:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "mm_conc_work_count 8000") {
		t.Fatalf("lost observations:\n%s", buf.String())
	}
}

func TestValidateTextRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "mm_x_total 1\n",
		"duplicate series": "# HELP mm_x_total x\n# TYPE mm_x_total counter\n" +
			"mm_x_total 1\nmm_x_total 2\n",
		"duplicate TYPE": "# TYPE mm_x_total counter\n# TYPE mm_x_total counter\nmm_x_total 1\n",
		"non-cumulative buckets": "# TYPE mm_h histogram\n" +
			`mm_h_bucket{le="1"} 5` + "\n" + `mm_h_bucket{le="2"} 3` + "\n" +
			`mm_h_bucket{le="+Inf"} 5` + "\n" + "mm_h_sum 1\nmm_h_count 5\n",
		"missing +Inf bucket": "# TYPE mm_h histogram\n" +
			`mm_h_bucket{le="1"} 5` + "\n" + "mm_h_sum 1\nmm_h_count 5\n",
		"count mismatch": "# TYPE mm_h histogram\n" +
			`mm_h_bucket{le="1"} 5` + "\n" + `mm_h_bucket{le="+Inf"} 5` + "\n" +
			"mm_h_sum 1\nmm_h_count 7\n",
	}
	for name, body := range cases {
		if _, err := ValidateText([]byte(body)); err == nil {
			t.Errorf("%s: validator accepted invalid body", name)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if len(DurationBuckets) != 20 || DurationBuckets[0] != 0.001 {
		t.Fatalf("DurationBuckets changed: %v", DurationBuckets)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	s := tr.Start("x", "k", "v")
	s.SetLabel("a", "b")
	s.End()
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil trace Stages = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil trace chrome output invalid: %v\n%s", err, buf.String())
	}
}

func TestTraceSpansAndStages(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("compile")
	for i := 0; i < 2; i++ {
		s := tr.Start("place", "mode", "0")
		time.Sleep(time.Millisecond)
		s.End()
	}
	r := tr.Start("route")
	inner := tr.Start("expand") // nested detail must not surface in Stages
	inner.End()
	r.End()
	root.SetLabel("path", "cold")
	root.End()

	stages := tr.Stages()
	byName := map[string]StageTiming{}
	for _, st := range stages {
		byName[st.Stage] = st
	}
	if byName["place"].Count != 2 {
		t.Fatalf("place count = %d, want 2 (stages: %+v)", byName["place"].Count, stages)
	}
	if byName["place"].Millis <= 0 {
		t.Fatalf("place ms not recorded: %+v", stages)
	}
	if _, ok := byName["route"]; !ok {
		t.Fatalf("route stage missing: %+v", stages)
	}
	if _, ok := byName["compile"]; ok {
		t.Fatalf("root wrapper should be skipped: %+v", stages)
	}
	if _, ok := byName["expand"]; ok {
		t.Fatalf("nested span leaked into stages: %+v", stages)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output not valid JSON: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"compile", "place", "route", "expand"} {
		if !names[want] {
			t.Fatalf("chrome trace missing span %q", want)
		}
	}
	for _, ev := range events {
		if ev.Name == "compile" && ev.Args["path"] != "cold" {
			t.Fatalf("root label lost: %+v", ev)
		}
	}
}

func TestTraceDoubleEnd(t *testing.T) {
	tr := NewTrace()
	s := tr.Start("a")
	s.End()
	s.End() // must not panic or skew depth
	b := tr.Start("b")
	b.End()
	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %+v, want a and b at same depth", stages)
	}
}

// TestTraceForkAdopt: forks record concurrently, nest below the spans
// open at the fork, and land on a thread of their own, labelled, when
// adopted; nil forks and nil parents are no-ops.
func TestTraceForkAdopt(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("compile")
	forks := []*Trace{tr.Fork(), tr.Fork()}
	var wg sync.WaitGroup
	for _, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := f.Start("troute")
			f.Start("expand").End()
			s.End()
		}()
	}
	wg.Wait()
	tr.Adopt(forks[0], "attempt", "0", "outcome", "failed")
	tr.Adopt(nil, "attempt", "9")
	tr.Adopt(forks[1], "attempt", "1", "outcome", "won")
	root.End()
	var nilTrace *Trace
	if nilTrace.Fork() != nil {
		t.Fatal("fork of a nil trace is not nil")
	}
	nilTrace.Adopt(forks[0])

	if st := tr.Stages(); len(st) != 1 || st[0].Stage != "troute" || st[0].Count != 2 {
		t.Fatalf("stages = %+v, want both adopted troute spans one level below compile", st)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range events {
		if ev.Name == "compile" {
			if ev.Tid != 1 {
				t.Fatalf("parent span on tid %d, want 1", ev.Tid)
			}
			continue
		}
		a := ev.Args["attempt"]
		if prev, ok := tids[a]; ok && prev != ev.Tid {
			t.Fatalf("attempt %s spans on tids %d and %d", a, prev, ev.Tid)
		}
		tids[a] = ev.Tid
	}
	if len(tids) != 2 || tids["0"] == tids["1"] || tids["0"] < 2 || tids["1"] < 2 {
		t.Fatalf("attempt threads %v, want two distinct tids beside the parent's", tids)
	}
	for _, ev := range events {
		if ev.Args["attempt"] == "1" && ev.Args["outcome"] != "won" {
			t.Fatalf("adopted span %+v lost its labels", ev)
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/store"
)

// postCompile submits the request and returns the decoded result.
func postCompile(t *testing.T, url string, body []byte) *Result {
	t.Helper()
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("undecodable result: %v", err)
	}
	return &res
}

// TestMetricsExposition is the /metrics acceptance test: after one cold
// and one warm compile the endpoint must serve valid Prometheus text
// carrying the request, latency, cache and kernel-work families — and the
// numbers must agree with /stats, because both render from one snapshot.
func TestMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(flow.NewCacheWithStore(st), 2)
	srv.Instrument(obs.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	cold := postCompile(t, ts.URL, body)
	warm := postCompile(t, ts.URL, body)
	if len(cold.Timings) == 0 || len(warm.Timings) == 0 {
		t.Fatalf("results carry no stage timings: cold %v warm %v", cold.Timings, warm.Timings)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type %q, want %q", ct, obs.TextContentType)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateText(text)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, text)
	}
	var missing []string
	for _, name := range []string{
		"mm_requests_total",
		"mm_requests_deduped_total",
		"mm_requests_inflight",
		"mm_compiles_total",
		"mm_compile_failures_total",
		"mm_compile_seconds",
		"mm_compile_workers",
		"mm_compile_workers_busy",
		"mm_uptime_seconds",
		"mm_cache_place_anneals_total",
		"mm_cache_artifact_hits_total",
		"mm_store_hits_total",
		"mm_route_calls_total",
		"mm_route_iterations",
		"mm_anneal_runs_total",
		"mm_anneal_moves",
	} {
		if !stats.Has(name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("families missing from /metrics: %s\n%s", strings.Join(missing, " "), text)
	}
	// The first compile ran the flow, the second was an artifact hit: both
	// latency paths must have recorded.
	for _, series := range []string{
		`mm_compile_seconds_count{path="cold"} 1`,
		`mm_compile_seconds_count{path="warm"} 1`,
	} {
		if !bytes.Contains(text, []byte(series)) {
			t.Errorf("series %q missing from /metrics\n%s", series, text)
		}
	}

	// /stats and /metrics render the same snapshot struct, so every
	// metric-tagged field — the nested flow.Stats and store.Stats
	// included — must be served with exactly its /stats value.
	text, snap := scrapeCoherent[StatsSnapshot](t, ts.URL)
	checkSnapshotMetrics(t, text, snap)
	if snap.Cache.Store.Puts == 0 {
		t.Fatal("a cold compile against a store recorded no puts")
	}
}

// scrapeCoherent fetches /stats, /metrics and /stats again until the two
// /stats documents agree: the counters only grow, so the /metrics body
// between two equal snapshots shows exactly that snapshot.
func scrapeCoherent[T any](t *testing.T, url string) ([]byte, T) {
	t.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	stats := func() T {
		var v T
		if err := json.Unmarshal(get("/stats"), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for attempt := 0; ; attempt++ {
		before := stats()
		text := get("/metrics")
		if after := stats(); reflect.DeepEqual(before, after) {
			return text, before
		}
		if attempt == 5 {
			t.Fatal("/stats kept changing between scrapes")
		}
	}
}

// checkSnapshotMetrics requires every metric-tagged field of snap to be
// served on /metrics as an unlabeled sample of its value, under a TYPE
// its name's suffix implies.
func checkSnapshotMetrics(t *testing.T, text []byte, snap any) {
	t.Helper()
	stats, err := obs.ValidateText(text)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, text)
	}
	values := metricValues(t, text)
	fields := obs.Fields(snap)
	if len(fields) == 0 {
		t.Fatalf("%T has no metric-tagged fields", snap)
	}
	for _, f := range fields {
		typ := "gauge"
		if strings.HasSuffix(f.Name, "_total") {
			typ = "counter"
		}
		if got := stats.Families[f.Name]; got != typ {
			t.Errorf("%s: TYPE %q, want %q", f.Name, got, typ)
		}
		if got, ok := values[f.Name]; !ok || got != f.Value {
			t.Errorf("/metrics %s = %v (present %v), /stats says %v", f.Name, got, ok, f.Value)
		}
	}
}

// metricValues maps every unlabeled sample of an exposition to its value.
func metricValues(t *testing.T, text []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestMetricsDisabled: a server never Instrumented must refuse the
// endpoint rather than serve an empty page that looks like zero traffic.
func TestMetricsDisabled(t *testing.T) {
	ts := httptest.NewServer(NewServer(flow.NewCache(), 1).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uninstrumented /metrics status %d, want 404", resp.StatusCode)
	}
}

// TestCompileSpanCoversStoreWrites: a persistent compile stores its
// baseline artifact and result inside an "artifact-store" span, and the
// root "compile" span stays open until those writes are done, so no part
// of the request's time lies outside every span.
func TestCompileSpanCoversStoreWrites(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := flow.NewCacheWithStore(st)
	tr := obs.NewTrace()
	res, _, err := CompileEnv(testRequest(t), Env{Cache: cache, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineKey == "" || cache.Stats().Store.Puts == 0 {
		t.Fatal("persistent compile stored nothing")
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	type event struct {
		Name    string
		Ts, Dur float64 // microseconds
	}
	var events []event
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var root, put, last *event
	for i := range events {
		switch ev := &events[i]; ev.Name {
		case "compile":
			root = ev
		case "artifact-store":
			put = ev
		default:
			if last == nil || ev.Ts >= last.Ts {
				last = ev
			}
		}
	}
	if root == nil || put == nil {
		t.Fatalf("trace lacks the compile or artifact-store span: %v", tr.SpanNames())
	}
	// Both ends are truncated to whole microseconds, hence the slack.
	if put.Ts < root.Ts || put.Ts+put.Dur > root.Ts+root.Dur+1 {
		t.Fatalf("artifact-store [%v, +%v] lies outside compile [%v, +%v]", put.Ts, put.Dur, root.Ts, root.Dur)
	}
	if last != nil && put.Ts < last.Ts {
		t.Fatalf("artifact-store opened before the %s span", last.Name)
	}
}

// TestTraceCoversStages: a traced compile must produce a span per flow
// stage, the Chrome export must carry them all, and the warm path must
// report its artifact load instead of pretending the flow ran.
func TestTraceCoversStages(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := flow.NewCacheWithStore(st)
	req := testRequest(t)

	tr := obs.NewTrace()
	res, _, err := CompileEnv(req, Env{Cache: cache, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range tr.SpanNames() {
		names[n] = true
	}
	for _, stage := range []string{
		"compile", "synth", "size", "graph", "place", "route",
		"merge", "tplace", "troute", "bitstream",
	} {
		if !names[stage] {
			t.Errorf("cold compile trace missing stage %q (have %v)", stage, tr.SpanNames())
		}
	}
	if len(res.Timings) == 0 {
		t.Fatal("cold result carries no stage timings")
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("Chrome trace is not a JSON event array: %v\n%s", err, chrome.Bytes())
	}
	got := map[string]bool{}
	for _, ev := range events {
		got[ev["name"].(string)] = true
	}
	for n := range names {
		if !got[n] {
			t.Errorf("Chrome export dropped span %q", n)
		}
	}

	// Warm: the artifact store serves the result, so the only work the
	// trace can honestly report is loading it.
	tr2 := obs.NewTrace()
	res2, cmp2, err := CompileEnv(req, Env{Cache: cache, Trace: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if cmp2 != nil {
		t.Fatal("second identical compile was not served from the artifact store")
	}
	warmNames := tr2.SpanNames()
	want := []string{"artifact-load", "compile"}
	if !stringSlicesEqual(warmNames, want) {
		t.Fatalf("warm trace spans %v, want %v", warmNames, want)
	}
	if len(res2.Timings) == 0 {
		t.Fatal("warm result carries no stage timings")
	}
	for _, st := range res2.Timings {
		if st.Stage != "artifact-load" {
			t.Fatalf("warm result reports flow stage %q; warm hits do no flow work", st.Stage)
		}
	}
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

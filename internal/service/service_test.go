package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/store"
)

// blifMode renders a small generated sequential netlist as BLIF text.
func blifMode(t *testing.T, seed int64, nGates int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("mode%d", seed))
	sigs := b.InputVector("in", 4)
	for i := 0; i < nGates; i++ {
		x := sigs[rng.Intn(len(sigs))]
		y := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(5) {
		case 0:
			sigs = append(sigs, b.And(x, y))
		case 1:
			sigs = append(sigs, b.Or(x, y))
		case 2:
			sigs = append(sigs, b.Xor(x, y))
		case 3:
			sigs = append(sigs, b.Not(x))
		default:
			sigs = append(sigs, b.Latch(x, false))
		}
	}
	for i := 0; i < 3; i++ {
		b.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
	}
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, b.N); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testRequest(t *testing.T) *CompileRequest {
	return &CompileRequest{
		Modes:  []Mode{{BLIF: blifMode(t, 1, 30)}, {BLIF: blifMode(t, 2, 30)}},
		Effort: 0.2,
		Seed:   1,
	}
}

// stripTimings removes the wall-clock timings field from a Result JSON
// body so deterministic-content comparisons can ignore it.
func stripTimings(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("undecodable result body: %v", err)
	}
	delete(m, "timings")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompileMatchesFlow(t *testing.T) {
	req := testRequest(t)
	res, cmp, err := CompileEnv(req, Env{Cache: flow.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if cmp == nil || res.Region == nil || res.MDR == nil || res.DCS == nil || res.SwitchCost == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.MDR.ReconfigBits != cmp.MDR.ReconfigBits ||
		res.DCS.ReconfigBits != cmp.WireLen.ReconfigBits ||
		res.SpeedupVsMDR != flow.Speedup(cmp.MDR, cmp.WireLen) {
		t.Fatalf("result fields disagree with the comparison: %+v", res)
	}
	if len(res.Modes) != 2 || res.Modes[0].Name != "mode1" {
		t.Fatalf("mode summaries wrong: %+v", res.Modes)
	}
	if res.SwitchCost.DCS.N() != 2 || res.SwitchCost.MDRFull[0][1] != res.MDR.ReconfigBits {
		t.Fatalf("switch matrices wrong: %+v", res.SwitchCost)
	}
}

// TestRequestKeyCanonical: the dedup key must ignore textual BLIF
// presentation but track every semantic knob.
func TestRequestKeyCanonical(t *testing.T) {
	req := testRequest(t)
	nls, err := ParseModes(req)
	if err != nil {
		t.Fatal(err)
	}
	base := RequestKey(nls, req)

	// Re-parsing the same text (fresh pointers) keys identically.
	nls2, _ := ParseModes(req)
	if RequestKey(nls2, req) != base {
		t.Fatal("identical request keyed differently across parses")
	}
	// Comments and blank lines do not change the network.
	commented := *req
	commented.Modes = append([]Mode(nil), req.Modes...)
	commented.Modes[0].BLIF = "# a comment\n\n" + commented.Modes[0].BLIF
	nls3, err := ParseModes(&commented)
	if err != nil {
		t.Fatal(err)
	}
	if RequestKey(nls3, &commented) != base {
		t.Fatal("cosmetic BLIF change altered the request key")
	}
	// A knob change does.
	seeded := *req
	seeded.Seed = 99
	if RequestKey(nls, &seeded) == base {
		t.Fatal("seed change did not alter the request key")
	}
	objed := *req
	objed.Objective = "edge"
	if RequestKey(nls, &objed) == base {
		t.Fatal("objective change did not alter the request key")
	}
}

// TestServerDedupsConcurrentRequests is the daemon's acceptance test:
// identical compile requests in flight at once share a single flow
// execution, and every client receives the same successful result.
func TestServerDedupsConcurrentRequests(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(flow.NewCacheWithStore(st), 2)
	const clients = 6
	// Park the winning request's compile until every duplicate has
	// committed to joining its in-flight call, so the single-execution
	// assertion below cannot depend on how compile latency compares to
	// request-arrival spread.
	var release atomic.Bool
	srv.testHookBeforeCompile = func() {
		for !release.Load() && srv.deduped.Load() < clients-1 {
			runtime.Gosched()
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	responses := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			responses[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	release.Store(true) // later single requests must not park
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("client %d received a different result", i)
		}
	}
	stats := srv.Stats()
	if stats.Compiles != 1 {
		t.Fatalf("%d concurrent identical requests ran %d flow executions, want 1", clients, stats.Compiles)
	}
	if stats.Deduped != clients-1 {
		t.Fatalf("deduped %d, want %d", stats.Deduped, clients-1)
	}
	if stats.Requests != clients || stats.Failures != 0 || stats.Inflight != 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}

	// A later identical request is a fresh execution (the in-flight window
	// is over) but a cheap one: the server's shared cache already holds
	// every placement, so no new annealing happens.
	annealsAfterFirst := stats.Cache.PlaceAnneals
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Timings are wall-clock (a warm hit reports an artifact-load stage,
	// the cold compile its flow stages), so they are the one field allowed
	// to differ; everything deterministic must match byte-for-byte.
	if !bytes.Equal(stripTimings(t, again), stripTimings(t, responses[0])) {
		t.Fatal("warm re-request returned a different result")
	}
	if s := srv.Stats(); s.Compiles != 2 {
		t.Fatalf("warm re-request: %d compiles, want 2", s.Compiles)
	} else if s.Cache.PlaceAnneals != annealsAfterFirst {
		t.Fatalf("warm re-request annealed %d new placements, want 0", s.Cache.PlaceAnneals-annealsAfterFirst)
	}
}

func TestServerEndpointsAndErrors(t *testing.T) {
	srv := NewServer(flow.NewCache(), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Workers != 1 {
		t.Fatalf("stats: %+v", snap)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Too few modes.
	resp, err = http.Post(ts.URL+"/compile", "application/json", strings.NewReader(`{"modes":[{"blif":".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single mode: status %d, want 400", resp.StatusCode)
	}
	// GET on /compile.
	resp, err = http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", resp.StatusCode)
	}
}

// TestResultJSONSchema pins the wire schema mmflow's -json consumers see.
func TestResultJSONSchema(t *testing.T) {
	res := &Result{
		Modes:  []ModeInfo{{Name: "a", LUTs: 1}},
		Region: &RegionInfo{Side: 5, ChannelW: 6, MinW: 5, RoutingBits: 7, LUTBits: 8},
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["error"]; ok {
		t.Fatal("empty error serialised")
	}
	region, ok := m["region"].(map[string]any)
	if !ok {
		t.Fatalf("region missing: %s", data)
	}
	for _, k := range []string{"side", "channel_width", "min_channel_width", "routing_bits", "lut_bits"} {
		if _, ok := region[k]; !ok {
			t.Fatalf("region key %q missing: %s", k, data)
		}
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Fatal("JSON round trip changed the result")
	}
}

// TestCompileDeltaBaseline is the service-level ECO loop: a persistent
// compile hands back a baseline key, an edited resubmission with that key
// compiles as a delta, and a bogus key degrades to a cold compile with
// the miss reported — never a failure.
func TestCompileDeltaBaseline(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := flow.NewCacheWithStore(st)
	req := testRequest(t)
	res, _, err := CompileEnv(req, Env{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineKey == "" {
		t.Fatal("persistent compile returned no baseline key")
	}
	if res.Delta != nil {
		t.Fatalf("cold compile reported delta info: %+v", res.Delta)
	}
	// The store holds whole results only: a cold compile puts its result
	// and its baseline, and none of the products in between.
	if puts := cache.Stats().Store.Puts; puts != 2 {
		t.Fatalf("cold persistent compile put %d store entries, want 2 (result and baseline)", puts)
	}

	// Edit one mode (one extra gate) and recompile against the baseline.
	edited := *req
	edited.Modes = append([]Mode(nil), req.Modes...)
	edited.Modes[1].BLIF = blifMode(t, 2, 31)
	edited.BaselineKey = res.BaselineKey
	res2, _, err := CompileEnv(&edited, Env{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Delta == nil || !res2.Delta.UsedBaseline {
		t.Fatalf("edited resubmission did not use the baseline: %+v", res2.Delta)
	}
	if res2.Delta.WarmRouteNets == 0 {
		t.Fatal("delta compile warm-routed no nets")
	}
	if res2.BaselineKey == "" || res2.BaselineKey == res.BaselineKey {
		t.Fatal("delta compile must store its own baseline under a new key")
	}
	// The baseline key is part of the request identity.
	nls, err := ParseModes(&edited)
	if err != nil {
		t.Fatal(err)
	}
	plain := edited
	plain.BaselineKey = ""
	if RequestKey(nls, &edited) == RequestKey(nls, &plain) {
		t.Fatal("baseline key did not alter the request key")
	}

	// A bogus baseline falls back to cold, reported but successful.
	bogus := *req
	bogus.BaselineKey = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	res3, _, err := CompileEnv(&bogus, Env{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Delta == nil || !res3.Delta.BaselineMiss {
		t.Fatalf("bogus baseline not reported as a miss: %+v", res3.Delta)
	}
	if cache.Stats().BaselineMisses == 0 {
		t.Fatal("baseline miss not counted")
	}

	// A miss is transient, so its fallback result must not be pinned in
	// the persistent result cache: once an artifact appears under the
	// requested key, the very same request compiles as a delta.
	bkey, err := codec.ParseHash(res.BaselineKey)
	if err != nil {
		t.Fatal(err)
	}
	art, ok := cache.GetArtifact(bkey)
	if !ok {
		t.Fatal("stored baseline artifact not retrievable")
	}
	lateKey, err := codec.ParseHash(bogus.BaselineKey)
	if err != nil {
		t.Fatal(err)
	}
	cache.PutArtifact(lateKey, art)
	res4, _, err := CompileEnv(&bogus, Env{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Delta == nil || !res4.Delta.UsedBaseline {
		t.Fatalf("late-arriving baseline not picked up on retry: %+v", res4.Delta)
	}
}

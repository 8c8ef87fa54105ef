package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
)

// fakeBackend is a stub worker: it answers /compile with a canned status
// and body and records which request keys it served, and /readyz with a
// settable status.
type fakeBackend struct {
	mu     sync.Mutex
	keys   []string
	status int
	body   string
	ready  int
	block  chan struct{} // when non-nil, /compile parks here first
	ts     *httptest.Server
}

func newFakeBackend(t *testing.T, status int, body string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{status: status, body: body, ready: http.StatusOK}
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		if f.block != nil {
			<-f.block
		}
		var req CompileRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		nls, err := ParseModes(&req)
		if err == nil {
			f.mu.Lock()
			f.keys = append(f.keys, RequestKey(nls, &req).Hex())
			f.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		f.mu.Lock()
		st, bd := f.status, f.body
		f.mu.Unlock()
		w.WriteHeader(st)
		fmt.Fprint(w, bd)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		st := f.ready
		f.mu.Unlock()
		w.WriteHeader(st)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) servedKeys() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]int{}
	for _, k := range f.keys {
		out[k]++
	}
	return out
}

// newTestDispatcher builds a dispatcher over the given backends with the
// background prober disabled (tests drive ProbeOnce explicitly).
func newTestDispatcher(t *testing.T, opts DispatchOptions, urls ...string) (*Dispatcher, *httptest.Server) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1
	}
	d, err := NewDispatcher(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, ts
}

// loadRequestBody builds a small valid compile request with the given
// seed (distinct seeds have distinct RequestKeys).
func loadRequestBody(t *testing.T, seed int64) []byte {
	t.Helper()
	req := testRequest(t)
	req.Seed = seed
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDispatcherShardsByKey: every request identity routes to exactly one
// backend, stably across repeats, and the keyspace spreads over the
// fleet.
func TestDispatcherShardsByKey(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, http.StatusOK, `{}`),
		newFakeBackend(t, http.StatusOK, `{}`),
		newFakeBackend(t, http.StatusOK, `{}`),
	}
	_, ts := newTestDispatcher(t, DispatchOptions{},
		backends[0].ts.URL, backends[1].ts.URL, backends[2].ts.URL)

	const nKeys, repeats = 12, 3
	for rep := 0; rep < repeats; rep++ {
		for seed := int64(0); seed < nKeys; seed++ {
			resp, err := http.Post(ts.URL+"/compile", "application/json",
				bytes.NewReader(loadRequestBody(t, seed)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d rep %d: status %d", seed, rep, resp.StatusCode)
			}
		}
	}
	owners := map[string]int{} // key -> backend index
	used := 0
	for i, b := range backends {
		keys := b.servedKeys()
		if len(keys) > 0 {
			used++
		}
		for k, n := range keys {
			if prev, dup := owners[k]; dup {
				t.Fatalf("key %s served by backends %d and %d — sharding is not stable", k[:12], prev, i)
			}
			owners[k] = i
			if n != repeats {
				t.Fatalf("key %s served %d times by backend %d, want %d", k[:12], n, i, repeats)
			}
		}
	}
	if len(owners) != nKeys {
		t.Fatalf("saw %d distinct keys, want %d", len(owners), nKeys)
	}
	if used < 2 {
		t.Fatalf("all %d keys landed on one backend — rendezvous hashing is not spreading", nKeys)
	}
}

// firstRankedBody returns the first load request body, by seed, whose
// identity d ranks url first. The ports of test servers are random, so
// which seeds qualify changes from run to run.
func firstRankedBody(t *testing.T, d *Dispatcher, url string) []byte {
	t.Helper()
	for seed := int64(0); ; seed++ {
		b := loadRequestBody(t, seed)
		var req CompileRequest
		_ = json.Unmarshal(b, &req)
		nls, err := ParseModes(&req)
		if err != nil {
			t.Fatal(err)
		}
		if d.rank(RequestKey(nls, &req))[0].url == url {
			return b
		}
	}
}

// TestDispatcherFailover: a dead backend is retried around, the request
// succeeds on the survivor, and the dead backend is ejected for the
// cooldown.
func TestDispatcherFailover(t *testing.T) {
	live := newFakeBackend(t, http.StatusOK, `{"ok":true}`)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	d, ts := newTestDispatcher(t, DispatchOptions{Cooldown: time.Minute}, deadURL, live.ts.URL)

	// A request identity that ranks the dead backend first exercises the
	// failover path deterministically.
	body := firstRankedBody(t, d, deadURL)
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	st := d.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	for _, b := range st.Backends {
		switch b.URL {
		case deadURL:
			if b.Failures == 0 || b.Available {
				t.Fatalf("dead backend not ejected: %+v", b)
			}
		case live.ts.URL:
			if b.Forwards != 1 {
				t.Fatalf("live backend forwards = %d, want 1", b.Forwards)
			}
		}
	}
	// With the dead backend in cooldown, even dead-first keys now go
	// straight to the live one without a retry.
	before := d.Stats().Retries
	resp, err = http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after ejection", resp.StatusCode)
	}
	if d.Stats().Retries != before {
		t.Fatal("ejected backend was still tried first")
	}
}

// TestDispatcherMetricsMatchStats: every metric-tagged DispatchStats
// field is served on /metrics with its /stats value, and the two families
// computed from the backend list agree with the backend rows.
func TestDispatcherMetricsMatchStats(t *testing.T) {
	live := newFakeBackend(t, http.StatusOK, `{}`)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	d, ts := newTestDispatcher(t, DispatchOptions{Cooldown: time.Minute}, deadURL, live.ts.URL)
	d.Instrument(obs.NewRegistry())
	// The first body ranks the dead backend first, so at least one
	// request fails over whatever ports the servers got.
	bodies := [][]byte{firstRankedBody(t, d, deadURL)}
	for seed := int64(0); seed < 4; seed++ {
		bodies = append(bodies, loadRequestBody(t, seed))
	}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	text, snap := scrapeCoherent[DispatchStats](t, ts.URL)
	checkSnapshotMetrics(t, text, snap)
	var avail, failures float64
	for _, b := range snap.Backends {
		if b.Available {
			avail++
		}
		failures += float64(b.Failures)
	}
	if failures == 0 {
		t.Fatal("no request tried the dead backend")
	}
	values := metricValues(t, text)
	if values["mm_fleet_backends_available"] != avail || values["mm_fleet_backend_errors_total"] != failures {
		t.Fatalf("computed fleet families %v available / %v errors, backend rows say %v / %v",
			values["mm_fleet_backends_available"], values["mm_fleet_backend_errors_total"], avail, failures)
	}
}

// TestDispatcherBackpressure: past the admission queue the dispatcher
// sheds with 503 + Retry-After instead of queueing unboundedly.
func TestDispatcherBackpressure(t *testing.T) {
	slow := newFakeBackend(t, http.StatusOK, `{}`)
	slow.block = make(chan struct{})
	d, ts := newTestDispatcher(t, DispatchOptions{QueueLimit: 2}, slow.ts.URL)

	var wg sync.WaitGroup
	statuses := make([]int, 4)
	retryAfter := make([]string, 4)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "application/json",
				bytes.NewReader(loadRequestBody(t, int64(i))))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	// Wait until the two admitted requests are parked inside the backend
	// and the rest have been shed.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Shed < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(slow.block)
	wg.Wait()

	ok, shed := 0, 0
	for i, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Fatalf("shed response %d missing Retry-After", i)
			}
		default:
			t.Fatalf("unexpected status %d", s)
		}
	}
	if ok != 2 || shed != 2 {
		t.Fatalf("ok=%d shed=%d, want 2/2", ok, shed)
	}
	if st := d.Stats(); st.Shed != 2 {
		t.Fatalf("stats.Shed = %d, want 2", st.Shed)
	}
}

// TestDispatcherRelaysAuthoritativeResponses: a worker's 422 (a mode set
// that does not route) is an answer, not a failure — it must be relayed
// verbatim with no failover to another backend.
func TestDispatcherRelaysAuthoritativeResponses(t *testing.T) {
	failing := newFakeBackend(t, http.StatusUnprocessableEntity, `{"error":"mode set does not route"}`)
	other := newFakeBackend(t, http.StatusOK, `{}`)
	// Single-backend ranking: only the failing worker is configured for
	// this key's shard by using a one-backend fleet, plus a second fleet
	// member that must stay cold.
	d, ts := newTestDispatcher(t, DispatchOptions{}, failing.ts.URL, other.ts.URL)

	for seed := int64(0); seed < 6; seed++ {
		resp, err := http.Post(ts.URL+"/compile", "application/json",
			bytes.NewReader(loadRequestBody(t, seed)))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnprocessableEntity {
			if body.String() != `{"error":"mode set does not route"}` {
				t.Fatalf("422 body not relayed verbatim: %q", body)
			}
		}
	}
	if st := d.Stats(); st.Retries != 0 {
		t.Fatalf("422 triggered failover: %+v", st)
	}
}

// TestDispatcherEjectsUnreadyBackend: the readiness prober removes a
// worker that reports unready (dead remote store, saturated queue) from
// routing, and restores it when it recovers.
func TestDispatcherEjectsUnreadyBackend(t *testing.T) {
	sick := newFakeBackend(t, http.StatusOK, `{}`)
	healthy := newFakeBackend(t, http.StatusOK, `{}`)
	d, ts := newTestDispatcher(t, DispatchOptions{}, sick.ts.URL, healthy.ts.URL)

	sick.mu.Lock()
	sick.ready = http.StatusServiceUnavailable
	sick.mu.Unlock()
	d.ProbeOnce()

	const n = 8
	for seed := int64(0); seed < n; seed++ {
		resp, err := http.Post(ts.URL+"/compile", "application/json",
			bytes.NewReader(loadRequestBody(t, seed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
	}
	if got := len(sick.servedKeys()); got != 0 {
		t.Fatalf("unready backend served %d keys", got)
	}
	if got := len(healthy.servedKeys()); got != n {
		t.Fatalf("healthy backend served %d keys, want %d", got, n)
	}

	// Recovery: the prober restores the backend and sharding resumes.
	sick.mu.Lock()
	sick.ready = http.StatusOK
	sick.mu.Unlock()
	d.ProbeOnce()
	for seed := int64(0); seed < 32; seed++ {
		resp, err := http.Post(ts.URL+"/compile", "application/json",
			bytes.NewReader(loadRequestBody(t, 100+seed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(sick.servedKeys()) == 0 {
		t.Fatal("recovered backend never rejoined the rotation")
	}
}

// TestServerAdmissionControl: the worker itself sheds past its bounded
// queue with 503 + Retry-After, and reports saturation on /readyz.
func TestServerAdmissionControl(t *testing.T) {
	srv := NewServer(nil, 1)
	srv.SetQueueLimit(1) // admit workers+queue = 2 requests
	release := make(chan struct{})
	srv.testHookBeforeCompile = func() { <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two distinct requests park inside the server (one compiling, one
	// queued); they fill the admission budget.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "application/json",
				bytes.NewReader(loadRequestBody(t, int64(i))))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.admitted.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.admitted.Load() < 2 {
		t.Fatal("requests never occupied the admission queue")
	}

	// Saturated: readiness fails, and the next request is shed.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/compile", "application/json",
		bytes.NewReader(loadRequestBody(t, 99)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("stats.Shed = %d, want 1", st.Shed)
	}

	close(release)
	wg.Wait()

	// Drained: ready again, and liveness was never affected.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after drain: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
}

// TestStartsAboveLimitRejected: a request asking for more than maxStarts
// multi-start anneals is refused with 400 by a worker and by the
// dispatcher, which never forwards it.
func TestStartsAboveLimitRejected(t *testing.T) {
	req := testRequest(t)
	req.Starts = maxStarts + 1
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(NewServer(flow.NewCache(), 1).Handler())
	t.Cleanup(worker.Close)
	backend := newFakeBackend(t, http.StatusOK, `{}`)
	_, dispatcher := newTestDispatcher(t, DispatchOptions{}, backend.ts.URL)
	for name, url := range map[string]string{"worker": worker.URL, "dispatcher": dispatcher.URL} {
		resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d starts answered %d, want 400", name, req.Starts, resp.StatusCode)
		}
	}
	if served := backend.servedKeys(); len(served) != 0 {
		t.Fatalf("dispatcher forwarded a rejected request: %v", served)
	}
	req.Starts = maxStarts
	if err := req.validate(); err != nil {
		t.Fatalf("%d starts rejected: %v", maxStarts, err)
	}
}

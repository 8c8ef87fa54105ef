package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/store"
)

// fleetWorker is one compile worker with a private local store attached
// to a shared remote blob service.
type fleetWorker struct {
	store *store.Store
	srv   *Server
	ts    *httptest.Server
}

// newFleet starts a remote blob service over its own store plus n
// workers sharing it, each with an isolated local cache directory.
func newFleet(t *testing.T, n int) (*httptest.Server, []*fleetWorker) {
	t.Helper()
	shared, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := httptest.NewServer(store.Handler(shared))
	t.Cleanup(blob.Close)
	workers := make([]*fleetWorker, n)
	for i := range workers {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		st.AttachRemote(store.NewRemote(blob.URL, 5*time.Second))
		srv := NewServer(flow.NewCacheWithStore(st), 2)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		workers[i] = &fleetWorker{store: st, srv: srv, ts: ts}
	}
	return blob, workers
}

// postCompileRaw submits the request and returns the raw status and body
// (postCompile in obs_test.go decodes; fleet tests compare bytes).
func postCompileRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestFleetSecondWorkerWarmViaRemote is the fleet's acceptance test: a
// key compiled cold by worker A is served warm by worker B purely
// through the shared remote artifact tier — B runs zero placement
// anneals and builds zero routing graphs, and the bytes match A's.
func TestFleetSecondWorkerWarmViaRemote(t *testing.T) {
	_, ws := newFleet(t, 2)
	a, b := ws[0], ws[1]
	body, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}

	status, coldBytes := postCompileRaw(t, a.ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("worker A cold compile: status %d: %s", status, coldBytes)
	}
	if st := a.srv.Stats(); st.Cache.PlaceAnneals == 0 || st.Cache.Store.RemotePuts == 0 {
		t.Fatalf("worker A did not compile cold and push artifacts: %+v", st.Cache)
	}

	status, warmBytes := postCompileRaw(t, b.ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("worker B warm compile: status %d: %s", status, warmBytes)
	}
	st := b.srv.Stats()
	if st.Cache.PlaceAnneals != 0 {
		t.Fatalf("worker B ran %d placement anneals, want 0 (warm via remote)", st.Cache.PlaceAnneals)
	}
	if st.Cache.GraphBuilds != 0 {
		t.Fatalf("worker B built %d routing graphs, want 0 (warm via remote)", st.Cache.GraphBuilds)
	}
	if st.Cache.ArtifactHits == 0 {
		t.Fatalf("worker B reported no artifact hit: %+v", st.Cache)
	}
	if st.Cache.Store.RemoteHits == 0 {
		t.Fatalf("worker B's warm result did not come through the remote tier: %+v", st.Cache.Store)
	}
	if !bytes.Equal(stripTimings(t, warmBytes), stripTimings(t, coldBytes)) {
		t.Fatal("worker B's warm result differs from worker A's cold result")
	}

	// The write-through made B's copy local: a repeat visit stays off the
	// network entirely.
	remoteHits := st.Cache.Store.RemoteHits
	status, againBytes := postCompileRaw(t, b.ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("worker B repeat: status %d", status)
	}
	if !bytes.Equal(stripTimings(t, againBytes), stripTimings(t, coldBytes)) {
		t.Fatal("worker B repeat returned different bytes")
	}
	if st := b.srv.Stats(); st.Cache.Store.RemoteHits != remoteHits {
		t.Fatalf("repeat request went remote again: %+v", st.Cache.Store)
	}
}

// TestFleetRemoteDownMidRun: the remote tier dying mid-run must cost
// performance only — every request still succeeds, served by local
// recompute, and the worker reports itself unready so the dispatcher
// can steer around it.
func TestFleetRemoteDownMidRun(t *testing.T) {
	blob, ws := newFleet(t, 1)
	w := ws[0]

	req1 := testRequest(t)
	body1, _ := json.Marshal(req1)
	if status, out := postCompileRaw(t, w.ts.URL, body1); status != http.StatusOK {
		t.Fatalf("compile with remote up: status %d: %s", status, out)
	}

	blob.Close() // the remote tier dies mid-run

	// A new key (cold, put must fail remotely) and the old key (warm
	// locally) both still succeed.
	req2 := testRequest(t)
	req2.Seed = 7
	body2, _ := json.Marshal(req2)
	if status, out := postCompileRaw(t, w.ts.URL, body2); status != http.StatusOK {
		t.Fatalf("cold compile with remote down: status %d: %s", status, out)
	}
	if status, _ := postCompileRaw(t, w.ts.URL, body1); status != http.StatusOK {
		t.Fatalf("warm compile with remote down: status %d", status)
	}

	st := w.srv.Stats()
	if st.Failures != 0 {
		t.Fatalf("remote outage caused %d request failures, want 0 (fail-open)", st.Failures)
	}
	if st.Cache.Store.RemoteErrors == 0 {
		t.Fatalf("remote outage left no error trace: %+v", st.Cache.Store)
	}

	// Readiness (not liveness) reflects the outage.
	resp, err := http.Get(w.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with remote down: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(w.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with remote down: status %d, want 200", resp.StatusCode)
	}
}

// staleClientBody returns body with the route_workers and place_workers
// knobs older clients sent, at values that would have started a million
// goroutines per kernel had anything still honoured them.
func staleClientBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["route_workers"] = 1000000
	m["place_workers"] = 1000000
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetWorkerCountIndependence pins the determinism contract the
// fleet relies on: the worker-pool size is execution detail, not
// identity — the same request compiled cold by a 1-worker and a 4-worker
// server yields byte-identical results, so artifacts are shareable
// fleet-wide. It is also the trust-boundary regression for old clients:
// a body still carrying route_workers/place_workers compiles with 200 to
// the same bytes and the same RequestKey, and the absurd values it
// carries start no goroutines.
func TestFleetWorkerCountIndependence(t *testing.T) {
	plain, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	stale := staleClientBody(t, plain)
	var results [][]byte
	for _, c := range []struct {
		pool int
		body []byte
	}{{1, plain}, {4, plain}, {4, stale}} {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(flow.NewCacheWithStore(st), c.pool)
		ts := httptest.NewServer(srv.Handler())
		// Sample the goroutine count for the whole compile: a kernel
		// sizing a pool from the stale knobs would show up as a spike.
		before := runtime.NumGoroutine()
		peak := 0 // written by the sampler only, read after it exits
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				peak = max(peak, runtime.NumGoroutine())
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		status, out := postCompileRaw(t, ts.URL, c.body)
		close(stop)
		<-sampled
		ts.Close()
		if status != http.StatusOK {
			t.Fatalf("pool=%d: status %d: %s", c.pool, status, out)
		}
		if peak > before+64 {
			t.Fatalf("pool=%d: %d goroutines during the compile, %d before", c.pool, peak, before)
		}
		// Nothing the compile started may outlive it.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("pool=%d: %d goroutines after the compile, %d before", c.pool, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		results = append(results, stripTimings(t, out))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("cold compiles at different server pool sizes diverged")
	}
	if !bytes.Equal(results[1], results[2]) {
		t.Fatal("a body carrying the stale worker knobs compiled to different bytes")
	}

	// The stale knobs must not change the request identity — otherwise
	// old clients would miss the fleet's cross-worker warm path.
	var plainReq, staleReq CompileRequest
	if err := json.Unmarshal(plain, &plainReq); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stale, &staleReq); err != nil {
		t.Fatal(err)
	}
	nls, err := ParseModes(&plainReq)
	if err != nil {
		t.Fatal(err)
	}
	if RequestKey(nls, &plainReq) != RequestKey(nls, &staleReq) {
		t.Fatal("stale worker knobs leaked into RequestKey")
	}
}

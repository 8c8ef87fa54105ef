package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/flow"
	"repro/internal/store"
)

// identifyBody runs one body through m.identify as a /compile POST.
func identifyBody(m *keyMemo, body []byte) (*compileBody, error) {
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
	return m.identify(httptest.NewRecorder(), r)
}

// postRaw posts a body to /compile and returns the status and reply.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
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
	return resp.StatusCode, data
}

func newStoreServer(t *testing.T) (*Server, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(flow.NewCacheWithStore(st), 1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, ts
}

// TestIdentifyMemoSkipsParse: a body identified once is identified again
// from its digest alone, to the same key, without being decoded or
// parsed.
func TestIdentifyMemoSkipsParse(t *testing.T) {
	body := loadRequestBody(t, 1)
	var m keyMemo
	first, err := identifyBody(&m, body)
	if err != nil {
		t.Fatal(err)
	}
	if first.memoHit || first.nls == nil {
		t.Fatalf("first identify: memo hit %v, parsed %v", first.memoHit, first.nls != nil)
	}
	again, err := identifyBody(&m, body)
	if err != nil {
		t.Fatal(err)
	}
	if !again.memoHit || again.nls != nil || again.req.Modes != nil {
		t.Fatalf("repeat identify: memo hit %v, parsed %v", again.memoHit, again.nls != nil)
	}
	if again.key != first.key {
		t.Fatal("memo returned a different key for the same body")
	}
	if err := again.parse(); err != nil || RequestKey(again.nls, &again.req) != first.key {
		t.Fatalf("late parse of a memo hit: err %v, or its key differs", err)
	}
}

// TestRepeatBodyServedFromDigest: the second identical body is answered
// warm from its digest — byte-identical outside timings — and counts as
// a request, a compile and a warm latency sample exactly like a parsed
// warm request.
func TestRepeatBodyServedFromDigest(t *testing.T) {
	srv, _, ts := newStoreServer(t)
	body := loadRequestBody(t, 1)
	status, cold := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, cold)
	}
	if st := srv.Stats(); st.KeyMemoHits != 0 {
		t.Fatalf("first body counted %d memo hits", st.KeyMemoHits)
	}
	status, warm := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, warm)
	}
	if !bytes.Equal(stripTimings(t, warm), stripTimings(t, cold)) {
		t.Fatal("repeat body answered differently")
	}
	var res Result
	if err := json.Unmarshal(warm, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 1 || res.Timings[0].Stage != "artifact-load" {
		t.Fatalf("repeat body not served from the store: timings %+v", res.Timings)
	}
	st := srv.Stats()
	if st.KeyMemoHits != 1 || st.Requests != 2 || st.Compiles != 2 || st.Deduped != 0 || st.Failures != 0 {
		t.Fatalf("stats after a digest hit: %+v", st)
	}
	if st.Cache.ArtifactHits != 1 {
		t.Fatalf("digest hit read %d stored results, want 1", st.Cache.ArtifactHits)
	}
}

// TestDigestHitRecompilesWhenResultGone: a memo hit whose stored result
// has disappeared parses and compiles again, to the same answer, and
// stores it again.
func TestDigestHitRecompilesWhenResultGone(t *testing.T) {
	srv, st, ts := newStoreServer(t)
	body := loadRequestBody(t, 2)
	status, cold := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, cold)
	}
	b, err := identifyBody(&keyMemo{}, body)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path(resultKey(b.key))
	if err := os.Remove(path); err != nil {
		t.Fatalf("stored result not where expected: %v", err)
	}
	status, again := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("recompile: status %d: %s", status, again)
	}
	if !bytes.Equal(stripTimings(t, again), stripTimings(t, cold)) {
		t.Fatal("recompile after losing the stored result answered differently")
	}
	var res Result
	if err := json.Unmarshal(again, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) < 2 {
		t.Fatalf("recompile did not run the flow: timings %+v", res.Timings)
	}
	if s := srv.Stats(); s.KeyMemoHits != 1 || s.Compiles != 2 || s.Cache.ArtifactHits != 0 {
		t.Fatalf("stats after a recompile: %+v", s)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recompiled result was not stored again: %v", err)
	}
}

// TestRejectedBodiesNotMemoized: bodies that fail to decode, validate or
// parse are refused with 400 every time and never enter the memo.
func TestRejectedBodiesNotMemoized(t *testing.T) {
	valid := loadRequestBody(t, 1)
	tooMany := testRequest(t)
	tooMany.Starts = maxStarts + 1
	badStarts, err := json.Marshal(tooMany)
	if err != nil {
		t.Fatal(err)
	}
	badBLIF, err := json.Marshal(CompileRequest{Modes: []Mode{{BLIF: ".model a\n.frobnicate\n"}, {BLIF: ".model b\n"}}})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"malformed JSON":  []byte("{"),
		"trailing data":   append(append([]byte(nil), valid...), " trailing"...),
		"too many starts": badStarts,
		"bad BLIF":        badBLIF,
	}
	srv := NewServer(flow.NewCache(), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, body := range bodies {
		for try := 0; try < 2; try++ {
			if status, reply := postRaw(t, ts.URL, body); status != http.StatusBadRequest {
				t.Fatalf("%s, try %d: status %d, want 400: %s", name, try, status, reply)
			}
		}
	}
	if n := len(srv.ids.keys); n != 0 {
		t.Fatalf("%d rejected bodies entered the memo", n)
	}
	if st := srv.Stats(); st.KeyMemoHits != 0 || st.Compiles != 0 {
		t.Fatalf("rejected bodies: %+v", st)
	}
}

// TestTrailingDataRejectedByWorkerAndDispatcher: the worker and the
// dispatcher decode bodies the same way, so a valid request followed by
// trailing data is a 400 from both and is never forwarded.
func TestTrailingDataRejectedByWorkerAndDispatcher(t *testing.T) {
	body := append(loadRequestBody(t, 1), " trailing"...)
	worker := httptest.NewServer(NewServer(flow.NewCache(), 1).Handler())
	t.Cleanup(worker.Close)
	backend := newFakeBackend(t, http.StatusOK, `{}`)
	_, dispatcher := newTestDispatcher(t, DispatchOptions{}, backend.ts.URL)
	for name, url := range map[string]string{"worker": worker.URL, "dispatcher": dispatcher.URL} {
		if status, reply := postRaw(t, url, body); status != http.StatusBadRequest {
			t.Fatalf("%s: trailing data answered %d, want 400: %s", name, status, reply)
		}
	}
	if served := backend.servedKeys(); len(served) != 0 {
		t.Fatalf("dispatcher forwarded a rejected request: %v", served)
	}
}

// TestDistinctBodiesShareKey: different BLIF text for the same networks
// is two memo entries but one RequestKey.
func TestDistinctBodiesShareKey(t *testing.T) {
	req := testRequest(t)
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Modes[0].BLIF = "# a comment\n\n" + req.Modes[0].BLIF
	commented, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var m keyMemo
	a, err := identifyBody(&m, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := identifyBody(&m, commented)
	if err != nil {
		t.Fatal(err)
	}
	if b.memoHit || a.key != b.key {
		t.Fatalf("commented body: memo hit %v, same key %v", b.memoHit, a.key == b.key)
	}
	if len(m.keys) != 2 {
		t.Fatalf("memo holds %d digests, want 2", len(m.keys))
	}
}

// TestKeyMemoBounded: the memo never holds more than keyMemoCap digests.
func TestKeyMemoBounded(t *testing.T) {
	req := &CompileRequest{Modes: []Mode{
		{BLIF: ".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n"},
		{BLIF: ".model b\n.inputs x\n.outputs y\n.names x y\n0 1\n.end\n"},
	}}
	var m keyMemo
	for seed := 0; seed <= keyMemoCap; seed++ {
		req.Seed = int64(seed)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := identifyBody(&m, body); err != nil {
			t.Fatal(err)
		}
		if len(m.keys) > keyMemoCap {
			t.Fatalf("memo grew to %d digests, bound %d", len(m.keys), keyMemoCap)
		}
	}
	if len(m.keys) != 1 {
		t.Fatalf("memo did not start over on overflow: %d digests", len(m.keys))
	}
}

// FuzzIdentify feeds arbitrary /compile bodies to identify: it must
// never panic, and the same body twice must give the same key (the
// second time from the memo) or be refused both times.
func FuzzIdentify(f *testing.F) {
	f.Add([]byte(`{"modes":[{"blif":".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n"},{"blif":".model b\n.inputs x\n.outputs y\n.names x y\n0 1\n.end\n"}],"seed":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var m keyMemo
		first, err1 := identifyBody(&m, body)
		again, err2 := identifyBody(&m, body)
		switch {
		case (err1 == nil) != (err2 == nil):
			t.Fatalf("identify changed its mind: %v, then %v", err1, err2)
		case err1 != nil:
			if len(m.keys) != 0 {
				t.Fatal("a refused body entered the memo")
			}
		case first.key != again.key || !again.memoHit:
			t.Fatalf("repeat identify: same key %v, memo hit %v", first.key == again.key, again.memoHit)
		}
	})
}

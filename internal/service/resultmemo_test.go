package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/flow"
)

// decodeReply decodes a /compile reply.
func decodeReply(t *testing.T, data []byte) *Result {
	t.Helper()
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("undecodable reply: %v", err)
	}
	return &res
}

// wantArtifactLoad fails unless the reply was served warm: exactly one
// timing row, artifact-load.
func wantArtifactLoad(t *testing.T, what string, data []byte) {
	t.Helper()
	if tm := decodeReply(t, data).Timings; len(tm) != 1 || tm[0].Stage != "artifact-load" {
		t.Fatalf("%s: timings %+v, want one artifact-load row", what, tm)
	}
}

// memoEntryOf returns the digest memo's entry for a body.
func memoEntryOf(srv *Server, body []byte) (memoEntry, bool) {
	srv.ids.mu.Lock()
	defer srv.ids.mu.Unlock()
	e, ok := srv.ids.keys[codec.Sum(body)]
	return e, ok
}

// TestRepeatsServedFromMemo: cold, then warm from the store, then warm
// from memory, all answered with the same bytes outside timings; the
// store is read once, by the first warm request, and every warm reply
// has a single artifact-load row.
func TestRepeatsServedFromMemo(t *testing.T) {
	srv, _, ts := newStoreServer(t)
	body := loadRequestBody(t, 3)
	status, cold := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, cold)
	}
	if e, _ := memoEntryOf(srv, body); e.res != nil {
		t.Fatal("a cold compile filled the result memo")
	}
	const repeats = 4
	for i := 1; i <= repeats; i++ {
		status, warm := postRaw(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, status, warm)
		}
		if !bytes.Equal(stripTimings(t, warm), stripTimings(t, cold)) {
			t.Fatalf("repeat %d answered differently", i)
		}
		wantArtifactLoad(t, "repeat", warm)
		st := srv.Stats()
		if st.Cache.ArtifactHits != 1 || st.ResultMemoHits != uint64(i-1) {
			t.Fatalf("repeat %d: %d store hits, %d memo hits; want 1 and %d",
				i, st.Cache.ArtifactHits, st.ResultMemoHits, i-1)
		}
	}
	e, ok := memoEntryOf(srv, body)
	if !ok || e.res == nil || e.res.Timings != nil {
		t.Fatalf("remembered result: present %v, %+v", ok, e.res)
	}
	if st := srv.Stats(); st.Requests != repeats+1 || st.Compiles != repeats+1 || st.KeyMemoHits != repeats || st.Failures != 0 {
		t.Fatalf("stats after memo hits: %+v", st)
	}
}

// TestConcurrentRepeatsShareMemo: concurrent repeats of one compiled
// body race to fill the memo and then read the shared result together;
// every reply is the cold answer, and each is served either from the
// store or from memory.
func TestConcurrentRepeatsShareMemo(t *testing.T) {
	srv, _, ts := newStoreServer(t)
	body := loadRequestBody(t, 6)
	_, cold := postRaw(t, ts.URL, body)
	const n = 8
	replies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if replies[i], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("repeat %d: status %d, err %v", i, resp.StatusCode, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, warm := range replies {
		if !bytes.Equal(stripTimings(t, warm), stripTimings(t, cold)) {
			t.Fatalf("concurrent repeat %d answered differently", i)
		}
		wantArtifactLoad(t, "concurrent repeat", warm)
	}
	if s := srv.Stats(); s.Cache.ArtifactHits < 1 || s.Cache.ArtifactHits+s.ResultMemoHits != n {
		t.Fatalf("%d store hits + %d memo hits, want %d in all", s.Cache.ArtifactHits, s.ResultMemoHits, n)
	}
}

// TestMemoServesVanishedResult: once a result is remembered, losing its
// store entry does not matter: the same key always gives the same bytes,
// so the repeat is still answered, warm and from memory.
func TestMemoServesVanishedResult(t *testing.T) {
	srv, st, ts := newStoreServer(t)
	body := loadRequestBody(t, 4)
	_, cold := postRaw(t, ts.URL, body)
	if status, _ := postRaw(t, ts.URL, body); status != http.StatusOK {
		t.Fatalf("store-warm repeat: status %d", status)
	}
	e, ok := memoEntryOf(srv, body)
	if !ok || e.res == nil {
		t.Fatal("a warm store hit did not fill the result memo")
	}
	if err := os.Remove(st.Path(resultKey(e.key))); err != nil {
		t.Fatalf("stored result not where expected: %v", err)
	}
	status, again := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("after deletion: status %d: %s", status, again)
	}
	if !bytes.Equal(stripTimings(t, again), stripTimings(t, cold)) {
		t.Fatal("memo answered differently after its store entry vanished")
	}
	wantArtifactLoad(t, "after deletion", again)
	if s := srv.Stats(); s.ResultMemoHits != 1 || s.Cache.ArtifactHits != 1 || s.Cache.ArtifactMisses != 1 {
		t.Fatalf("stats after deletion: %+v", s)
	}
}

// TestErrorResultNeverRemembered: a stored entry carrying an error is not
// a warm hit, so it never enters the memo; the compile that replaces it
// is not remembered either, and only the next, verified store hit is.
func TestErrorResultNeverRemembered(t *testing.T) {
	srv, st, ts := newStoreServer(t)
	body := loadRequestBody(t, 5)
	b, err := identifyBody(&keyMemo{}, body)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := json.Marshal(&Result{Error: "stored failure", Region: &RegionInfo{Side: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultKey(b.key), poisoned); err != nil {
		t.Fatal(err)
	}
	status, first := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("over a stored error: status %d: %s", status, first)
	}
	if tm := decodeReply(t, first).Timings; len(tm) < 2 {
		t.Fatalf("a stored error was served: timings %+v", tm)
	}
	if e, _ := memoEntryOf(srv, body); e.res != nil {
		t.Fatal("an error entry or a compile filled the result memo")
	}
	status, second := postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", status, second)
	}
	wantArtifactLoad(t, "repeat", second)
	if e, _ := memoEntryOf(srv, body); e.res == nil || e.res.Error != "" {
		t.Fatalf("verified store hit not remembered: %+v", e.res)
	}
	if s := srv.Stats(); s.ResultMemoHits != 0 || s.Cache.ArtifactHits != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestMemoryOnlyServerNeverRemembers: without a store nothing is served
// warm, so every repeat compiles.
func TestMemoryOnlyServerNeverRemembers(t *testing.T) {
	srv := NewServer(flow.NewCache(), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := loadRequestBody(t, 1)
	for i := 0; i < 2; i++ {
		status, reply := postRaw(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, reply)
		}
		if tm := decodeReply(t, reply).Timings; len(tm) < 2 {
			t.Fatalf("request %d did not compile: timings %+v", i, tm)
		}
	}
	if e, _ := memoEntryOf(srv, body); e.res != nil {
		t.Fatal("a memory-only server remembered a result")
	}
	if s := srv.Stats(); s.ResultMemoHits != 0 || s.KeyMemoHits != 1 || s.Compiles != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestResultMemoBounded: the remembered results never exceed
// resultMemoBytes of stored size; the result that would overfill the
// budget starts the memo over, and one larger than the whole budget is
// not remembered.
func TestResultMemoBounded(t *testing.T) {
	var m keyMemo
	size := resultMemoBytes / 3
	body := func(i int) *compileBody {
		return &compileBody{digest: codec.Sum([]byte{byte(i)}), key: codec.Sum([]byte{0, byte(i)})}
	}
	for i := 0; i < 3; i++ {
		m.remember(body(i), &Result{}, size)
	}
	if len(m.keys) != 3 || m.bytes != 3*size {
		t.Fatalf("under budget: %d entries, %d bytes", len(m.keys), m.bytes)
	}
	m.remember(body(3), &Result{}, size)
	if m.bytes > resultMemoBytes || len(m.keys) != 1 || m.keys[body(3).digest].res == nil {
		t.Fatalf("overfilled: %d entries, %d bytes, budget %d", len(m.keys), m.bytes, resultMemoBytes)
	}
	m.remember(body(3), &Result{}, size)
	if m.bytes != size {
		t.Fatalf("remembering a digest twice charged it twice: %d bytes", m.bytes)
	}
	m.remember(body(4), &Result{}, resultMemoBytes+1)
	if _, ok := m.keys[body(4).digest]; ok || m.bytes != size {
		t.Fatalf("a result over the whole budget was remembered: %d bytes", m.bytes)
	}
}

// TestBodyClaimingMoreThanItSends: a Content-Length of 60 MiB over a
// 10-byte body is a 400, and the server never allocates anywhere near
// what the client claimed.
func TestBodyClaimingMoreThanItSends(t *testing.T) {
	if buf, err := readBody(strings.NewReader("0123456789"), 60<<20); err != nil || len(buf) != 10 || cap(buf) > bodyPrealloc+1 {
		t.Fatalf("readBody: %d bytes, capacity %d, err %v", len(buf), cap(buf), err)
	}
	ts := httptest.NewServer(NewServer(flow.NewCache(), 1).Handler())
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := "POST /compile HTTP/1.1\r\nHost: mm\r\nContent-Type: application/json\r\n" +
		"Content-Length: 62914560\r\n\r\n{\"modes\":["
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short body answered %d, want 400", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("a 10-byte body claiming 60 MiB allocated %d bytes", grew)
	}
}

// TestChunkedBodyAccepted: a body of unknown length, sent chunked, is
// read to its end and compiled.
func TestChunkedBodyAccepted(t *testing.T) {
	srv := NewServer(flow.NewCache(), 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != -1 || len(r.TransferEncoding) == 0 {
			t.Errorf("request not chunked: length %d, encoding %v", r.ContentLength, r.TransferEncoding)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	body := loadRequestBody(t, 1)
	// A reader of unknown length makes the client send the body chunked.
	resp, err := http.Post(ts.URL+"/compile", "application/json", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked body: status %d, err %v: %s", resp.StatusCode, err, reply)
	}
	if decodeReply(t, reply).Region == nil {
		t.Fatal("chunked body compiled to an incomplete result")
	}
}

// TestOversizedBodyRefused: a body one byte past maxRequestBytes is
// refused, whether or not it declares its length.
func TestOversizedBodyRefused(t *testing.T) {
	for _, declared := range []int64{-1, maxRequestBytes + 1} {
		r := httptest.NewRequest(http.MethodPost, "/compile", io.LimitReader(spaces{}, maxRequestBytes+1))
		r.ContentLength = declared
		if _, err := (&keyMemo{}).identify(httptest.NewRecorder(), r); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("declared %d: oversized body not refused: %v", declared, err)
		}
	}
}

// spaces is an endless body of spaces that allocates nothing.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

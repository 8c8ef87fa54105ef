package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/codec"
	"repro/internal/netlist"
)

// keyMemoCap bounds the digest memo's entry count. An entry without a
// remembered result is two 32-byte hashes plus map overhead, so the keys
// alone stay under 1 MiB; remembered results are bounded separately by
// resultMemoBytes. On overflow of either bound the memo starts over,
// which costs each live body one more parse and one more store read.
const keyMemoCap = 4096

// resultMemoBytes bounds the results the digest memo remembers, charged
// at each result's stored (JSON) size. Results grow with the mode count
// (the switch-cost matrices are N×N), so an entry count alone bounds
// nothing.
const resultMemoBytes = 8 << 20

// bodyPrealloc is the most a body read allocates up front on the word
// of a client's Content-Length; a larger body grows past it as it
// arrives.
const bodyPrealloc = 256 << 10

// keyMemo maps the SHA-256 digest of a raw /compile body to the
// RequestKey it parsed to and, once a request for that digest was
// served from the store, to the decoded result. RequestKey is a pure
// function of the body bytes, so a digest seen once identifies its
// request without decoding JSON or parsing BLIF again; distinct bodies
// of the same networks still share one RequestKey. Only bodies that
// decoded, validated and parsed are remembered, so a rejected body is
// rejected afresh every time. The memo is process-local and never
// persisted: a hit only skips work.
type keyMemo struct {
	mu    sync.Mutex
	keys  map[codec.Hash]memoEntry
	bytes int // stored size of the remembered results
}

// memoEntry is what the memo knows about one body digest.
type memoEntry struct {
	key codec.Hash
	// res is the result a warm store hit decoded for key, shared
	// read-only by every response served from it; nil until then.
	res *Result
}

// compileBody is one /compile request body and what is known about it.
type compileBody struct {
	raw    []byte
	digest codec.Hash
	key    codec.Hash
	// memoHit marks a key taken from the digest memo; such a body is
	// decoded and parsed only if a compile must run (parse).
	memoHit bool
	// res is the result remembered for the digest, if any: the server
	// answers from it without reading the store.
	res *Result
	req CompileRequest
	nls []*netlist.Netlist // nil until parsed
}

// identify reads a /compile body (at most maxRequestBytes) and derives
// its RequestKey: from the memo when its digest is known, together with
// any result remembered for it, otherwise by decoding, validating and
// parsing it. An error is the client's fault
// (HTTP 400). The worker and the dispatcher both identify through here,
// so they accept and refuse exactly the same bodies.
func (m *keyMemo) identify(w http.ResponseWriter, r *http.Request) (*compileBody, error) {
	raw, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("body too large or unreadable: %w", err)
	}
	b := &compileBody{raw: raw, digest: codec.Sum(raw)}
	m.mu.Lock()
	e, ok := m.keys[b.digest]
	m.mu.Unlock()
	if ok {
		b.key, b.res, b.memoHit = e.key, e.res, true
		return b, nil
	}
	if err := b.parse(); err != nil {
		return nil, err
	}
	b.key = RequestKey(b.nls, &b.req)
	m.mu.Lock()
	if m.keys == nil || len(m.keys) >= keyMemoCap {
		m.reset()
	}
	// A concurrent request for the same body may have got here first
	// and remembered its result since; keep that.
	if _, ok := m.keys[b.digest]; !ok {
		m.keys[b.digest] = memoEntry{key: b.key}
	}
	m.mu.Unlock()
	return b, nil
}

// remember records a warm reply, read from a stored entry of size
// bytes, as the answer to b's digest; the memo keeps a copy without the
// reply's timings. Only a verified, error-free store hit may be
// remembered. A result that would overfill resultMemoBytes starts the
// memo over; one larger than the whole budget is not remembered.
func (m *keyMemo) remember(b *compileBody, reply *Result, size int) {
	if size > resultMemoBytes {
		return
	}
	res := *reply
	res.Timings = nil
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.keys[b.digest]; ok && e.res != nil {
		return // a concurrent request remembered it first
	}
	if m.keys == nil || len(m.keys) >= keyMemoCap || m.bytes+size > resultMemoBytes {
		m.reset()
	}
	m.keys[b.digest] = memoEntry{key: b.key, res: &res}
	m.bytes += size
}

// reset empties the memo; the caller holds mu.
func (m *keyMemo) reset() {
	m.keys = make(map[codec.Hash]memoEntry)
	m.bytes = 0
}

// readBody reads r to EOF into a buffer sized from the declared length
// (-1 when unknown), trusting it for at most bodyPrealloc bytes: a
// client cannot make the server allocate what it merely claims.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	n := 512 // io.ReadAll's first buffer
	if declared >= 0 {
		// One spare byte lets the final read report EOF without growing.
		n = int(min(declared, bodyPrealloc)) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parse decodes, validates and parses the body, once. Decoding is
// strict about what follows the JSON document: trailing data is refused.
func (b *compileBody) parse() error {
	if b.nls != nil {
		return nil
	}
	if err := json.Unmarshal(b.raw, &b.req); err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	if err := b.req.validate(); err != nil {
		return err
	}
	nls, err := ParseModes(&b.req)
	if err != nil {
		return err
	}
	b.nls = nls
	return nil
}

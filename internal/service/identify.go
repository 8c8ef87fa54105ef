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

// keyMemoCap bounds the digest → RequestKey memo. An entry is two 32-byte
// hashes plus map overhead, so a full memo stays under 1 MiB; on
// overflow the memo starts over, which costs each live body one more
// parse.
const keyMemoCap = 4096

// keyMemo maps the SHA-256 digest of a raw /compile body to the
// RequestKey it parsed to. RequestKey is a pure function of the body
// bytes, so a digest seen once identifies its request without decoding
// JSON or parsing BLIF again; distinct bodies of the same networks still
// share one RequestKey. Only bodies that decoded, validated and parsed
// are remembered, so a rejected body is rejected afresh every time. The
// memo is process-local and never persisted: a hit only skips work.
type keyMemo struct {
	mu   sync.Mutex
	keys map[codec.Hash]codec.Hash
}

// compileBody is one /compile request body and what is known about it.
type compileBody struct {
	raw []byte
	key codec.Hash
	// memoHit marks a key taken from the digest memo; such a body is
	// decoded and parsed only if a compile must run (parse).
	memoHit bool
	req     CompileRequest
	nls     []*netlist.Netlist // nil until parsed
}

// identify reads a /compile body (at most maxRequestBytes) and derives
// its RequestKey: from the memo when its digest is known, otherwise by
// decoding, validating and parsing it. An error is the client's fault
// (HTTP 400). The worker and the dispatcher both identify through here,
// so they accept and refuse exactly the same bodies.
func (m *keyMemo) identify(w http.ResponseWriter, r *http.Request) (*compileBody, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("body too large or unreadable: %w", err)
	}
	b := &compileBody{raw: raw}
	digest := codec.Sum(raw)
	m.mu.Lock()
	key, ok := m.keys[digest]
	m.mu.Unlock()
	if ok {
		b.key, b.memoHit = key, true
		return b, nil
	}
	if err := b.parse(); err != nil {
		return nil, err
	}
	b.key = RequestKey(b.nls, &b.req)
	m.mu.Lock()
	if m.keys == nil || len(m.keys) >= keyMemoCap {
		m.keys = make(map[codec.Hash]codec.Hash)
	}
	m.keys[digest] = b.key
	m.mu.Unlock()
	return b, nil
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

// The remote tier: a content-addressed blob service over HTTP that lets N
// shared-nothing worker processes share one warm artifact universe.
//
// The protocol is deliberately tiny — the store's identity contract does
// all the work. A blob is addressed by the same codec.Hash key the local
// tier uses (the content hash of the artifact's *inputs*), so any worker
// that derives a key can fetch what any other worker compiled:
//
//	GET  /blob/{keyhex} — 200 + payload (X-Mm-Sum: sha256 of the body),
//	                      404 for absent or locally-corrupt entries
//	PUT  /blob/{keyhex} — store the body, 204
//	GET  /healthz       — liveness of the blob service
//	GET  /stats         — the backing Store's traffic counters as JSON
//
// Payloads are checksummed end to end: the server recomputes the SHA-256
// of what it serves, the client verifies the body against the header, and
// the local write-through re-verifies on every later read. A mismatch
// anywhere degrades to the store's universal failure mode — recompute —
// and the next Put heals both tiers.
//
// Every remote failure is fail-open by design: an unreachable, slow, or
// corrupt remote makes the fleet slower (cold compiles happen more than
// once), never wrong and never down.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
)

// blobPath prefixes every blob route of the remote store protocol.
const blobPath = "/blob/"

// sumHeader carries the hex SHA-256 of the payload body, letting the
// receiving side detect in-transit corruption before any decoder runs.
const sumHeader = "X-Mm-Sum"

// maxBlobBytes bounds a single artifact transfer in either direction.
// Whole compile results are a few MB at most; the cap only
// exists so a confused peer cannot make a worker buffer gigabytes.
const maxBlobBytes = 256 << 20

// ErrRemoteUnavailable wraps transport-level remote failures. Callers
// inside the store treat it as a miss (fail-open); it is exported so
// readiness probes can distinguish "remote down" from "key absent".
var ErrRemoteUnavailable = errors.New("store: remote unavailable")

// Remote is the client half of the blob protocol: one per store, shared
// by every goroutine. All methods are safe for concurrent use.
type Remote struct {
	base   string
	client *http.Client

	// Readiness probe cache: Healthy() is called per /readyz scrape and
	// must not turn every readiness check into remote traffic.
	probeMu sync.Mutex
	probeAt time.Time
	probeOK bool
}

// probeTTL is how long one /healthz probe result answers Healthy() calls.
const probeTTL = 2 * time.Second

// probeTimeout bounds a single readiness probe; a remote that cannot
// answer /healthz in this window is unreachable for readiness purposes.
const probeTimeout = time.Second

// NewRemote returns a client for the blob service at base (e.g.
// "http://store-host:9400"). timeout bounds every blob transfer; <= 0
// selects a default generous enough for multi-MB artifacts on a slow
// link but short enough that a hung remote cannot wedge a compile.
func NewRemote(base string, timeout time.Duration) *Remote {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Remote{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

// Base returns the remote's base URL.
func (r *Remote) Base() string { return r.base }

func (r *Remote) blobURL(key codec.Hash) string { return r.base + blobPath + key.Hex() }

// Get fetches the payload stored remotely under key. It returns
// ErrNotFound for absent entries, ErrCorrupt when the body fails its
// checksum, and an ErrRemoteUnavailable-wrapped error for transport
// failures — the caller maps all three to "recompute".
func (r *Remote) Get(key codec.Hash) ([]byte, error) {
	resp, err := r.client.Get(r.blobURL(key))
	if err != nil {
		return nil, fmt.Errorf("%w: get %s: %v", ErrRemoteUnavailable, r.base, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the body
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, ErrNotFound
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%w: get %s: status %d", ErrRemoteUnavailable, r.base, resp.StatusCode)
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: get %s: %v", ErrRemoteUnavailable, r.base, err)
	}
	if len(payload) > maxBlobBytes {
		return nil, ErrCorrupt
	}
	// Verify the body against the server's checksum. A missing header is
	// treated like a mismatch: an unchecksummed payload from a confused
	// peer must never reach a decoder.
	sum := sha256.Sum256(payload)
	if resp.Header.Get(sumHeader) != hex.EncodeToString(sum[:]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Put stores payload remotely under key. Failures are reported, not
// retried: the caller's local tier already holds the artifact, so a lost
// push only costs some other worker a recompute (which re-pushes).
func (r *Remote) Put(key codec.Hash, payload []byte) error {
	sum := sha256.Sum256(payload)
	req, err := http.NewRequest(http.MethodPut, r.blobURL(key), bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("%w: put %s: %v", ErrRemoteUnavailable, r.base, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(sumHeader, hex.EncodeToString(sum[:]))
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: put %s: %v", ErrRemoteUnavailable, r.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%w: put %s: status %d", ErrRemoteUnavailable, r.base, resp.StatusCode)
	}
	return nil
}

// Healthy reports whether the remote answered a recent liveness probe.
// Results are cached for probeTTL so readiness scrapes stay cheap; the
// probe itself is bounded by probeTimeout.
func (r *Remote) Healthy() bool {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	if time.Since(r.probeAt) < probeTTL {
		return r.probeOK
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	ok := false
	if err == nil {
		if resp, rerr := r.client.Do(req); rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	r.probeAt, r.probeOK = time.Now(), ok
	return ok
}

// Handler returns the server half of the blob protocol over a local
// store: the routes cmd/mmstored serves. The backing store verifies every
// entry it reads, so a bit-flipped blob on the store host is deleted
// server-side and reported as 404 — the fetching worker recomputes and
// its re-push heals the entry.
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(blobPath, func(w http.ResponseWriter, r *http.Request) {
		key, err := codec.ParseHash(strings.TrimPrefix(r.URL.Path, blobPath))
		if err != nil {
			http.Error(w, "bad blob key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			payload, err := s.Get(key)
			switch {
			case err == nil:
				sum := sha256.Sum256(payload)
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set(sumHeader, hex.EncodeToString(sum[:]))
				_, _ = w.Write(payload)
			case errors.Is(err, ErrNotFound), errors.Is(err, ErrCorrupt):
				http.Error(w, "not found", http.StatusNotFound)
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case http.MethodPut:
			payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
			if err != nil {
				http.Error(w, "body too large or unreadable", http.StatusBadRequest)
				return
			}
			// Reject in-transit corruption before it is persisted: the
			// client always sends the checksum it computed over its copy.
			if h := r.Header.Get(sumHeader); h != "" {
				sum := sha256.Sum256(payload)
				if h != hex.EncodeToString(sum[:]) {
					http.Error(w, "checksum mismatch", http.StatusBadRequest)
					return
				}
			}
			if err := s.Put(key, payload); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "GET or PUT required", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
	return mux
}

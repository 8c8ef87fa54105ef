// The fleet dispatcher: a stateless request router that turns N
// shared-nothing mmserved workers into one compile service.
//
// Routing is rendezvous (highest-random-weight) hashing over the request
// identity: every backend is scored by hashing (RequestKey, backend URL)
// and the request goes to the highest score. Two properties make this the
// right shape here:
//
//   - Identical requests always land on the same worker, so that worker's
//     in-flight dedup map keeps collapsing concurrent identical compiles
//     fleet-wide — no coordination service, no shared state, just the
//     same pure function of the key computed by every dispatcher.
//   - Adding or removing a backend remaps only the keys that scored
//     highest on it (~1/N of the space); everything else keeps its warm
//     worker.
//
// The RequestKey itself never learns about the fleet: worker counts,
// backend URLs and transport details stay out of every request and
// artifact identity by construction (the dispatcher only *reads* the
// key).
//
// Failures degrade by retrying the remainder of the rendezvous order with
// jittered backoff; a backend that fails transport or answers 503 is
// ejected for a cooldown (and a background prober watches /readyz to
// eject workers whose remote store died mid-flight). Past the bounded
// admission queue the dispatcher sheds with 503 + Retry-After rather than
// queueing unboundedly.
package service

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// forwardTimeout bounds one whole forward attempt (connect + compile +
// response). It is long on purpose: full-effort compiles are slow, and
// cutting one off only to retry it colder elsewhere helps nobody.
const forwardTimeout = 30 * time.Minute

// DispatchOptions tunes the dispatcher; the zero value selects every
// default. There is no retry budget: a request tries its candidate
// backends in rendezvous order, each at most once, before it fails.
type DispatchOptions struct {
	// QueueLimit bounds concurrently admitted requests; excess is shed
	// with 503 + Retry-After. <= 0 selects 256.
	QueueLimit int
	// DialTimeout bounds connection establishment per attempt — the
	// "is this worker alive at all" stage. <= 0 selects 2s.
	DialTimeout time.Duration
	// RetryBaseDelay is the base of the jittered backoff between
	// attempts (doubled per extra failover, jittered ±50%). <= 0
	// selects 25ms.
	RetryBaseDelay time.Duration
	// Cooldown is how long a backend stays ejected after a transport
	// failure or a 503. <= 0 selects 3s.
	Cooldown time.Duration
	// ProbeInterval is the period of the background /readyz prober; 0
	// selects 2s, < 0 disables probing (tests drive ProbeOnce directly).
	ProbeInterval time.Duration
}

// DefaultDispatchOptions returns the production defaults spelled out on
// the DispatchOptions fields.
func DefaultDispatchOptions() DispatchOptions {
	return DispatchOptions{}.withDefaults()
}

func (o DispatchOptions) withDefaults() DispatchOptions {
	if o.QueueLimit <= 0 {
		o.QueueLimit = 256
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 25 * time.Millisecond
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 3 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	return o
}

// backend is one worker as the dispatcher sees it.
type backend struct {
	url string

	forwards, failures, saturated atomic.Uint64
	// downUntil (unix nanos) ejects the backend after a passive failure;
	// ready mirrors the last /readyz probe (starts true: a fresh fleet
	// is assumed healthy until proven otherwise).
	downUntil atomic.Int64
	unready   atomic.Bool
}

func (b *backend) available(now time.Time) bool {
	return !b.unready.Load() && now.UnixNano() >= b.downUntil.Load()
}

// Dispatcher routes compile requests across a fixed backend list. Create
// with NewDispatcher, optionally Instrument, then serve Handler; Close
// stops the background prober.
type Dispatcher struct {
	backends []*backend
	opts     DispatchOptions
	client   *http.Client
	probeCl  *http.Client
	started  time.Time
	stop     chan struct{}
	stopOnce sync.Once
	ids      keyMemo // routing identities of bodies seen before

	admitted                        atomic.Int64
	requests, shed, retries, failed atomic.Uint64

	// Observability (nil-safe when Instrument was never called).
	reg            *obs.Registry
	forwardSeconds *obs.Histogram
	inflightGauge  *obs.Gauge
}

// NewDispatcher builds a dispatcher over the given backend base URLs
// (e.g. "http://10.0.0.1:8433") and starts its readiness prober. The
// backend list is fixed for the dispatcher's lifetime.
func NewDispatcher(urls []string, opts DispatchOptions) (*Dispatcher, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("service: dispatcher needs at least one backend")
	}
	opts = opts.withDefaults()
	d := &Dispatcher{
		opts:    opts,
		started: time.Now(),
		stop:    make(chan struct{}),
		client: &http.Client{
			Timeout: forwardTimeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: opts.DialTimeout}).DialContext,
				MaxIdleConnsPerHost: 128,
			},
		},
		probeCl: &http.Client{Timeout: opts.DialTimeout},
	}
	seen := map[string]bool{}
	for _, u := range urls {
		if seen[u] {
			return nil, fmt.Errorf("service: duplicate backend %q", u)
		}
		seen[u] = true
		d.backends = append(d.backends, &backend{url: u})
	}
	if opts.ProbeInterval > 0 {
		go d.probeLoop()
	}
	return d, nil
}

// Close stops the background prober. In-flight forwards finish normally.
func (d *Dispatcher) Close() { d.stopOnce.Do(func() { close(d.stop) }) }

// probeLoop polls every backend's /readyz so that a worker that reports
// itself unready (saturated queue, dead remote store) is ejected from
// routing until it recovers — the active half of health tracking, next to
// the passive per-request failure marking.
func (d *Dispatcher) probeLoop() {
	t := time.NewTicker(d.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.ProbeOnce()
		}
	}
}

// ProbeOnce probes every backend's /readyz once, concurrently, and
// updates their readiness. Exported for tests and for callers that want
// an initial synchronous sweep before serving.
func (d *Dispatcher) ProbeOnce() {
	var wg sync.WaitGroup
	for _, b := range d.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			resp, err := d.probeCl.Get(b.url + "/readyz")
			ok := false
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
			b.unready.Store(!ok)
		}(b)
	}
	wg.Wait()
}

// rank orders the backends for a key by rendezvous score, highest first.
// The order is a pure function of (key, backend URLs): every dispatcher
// replica computes the same one, which is what keeps same-key requests on
// one worker without any shared state.
func (d *Dispatcher) rank(key codec.Hash) []*backend {
	type scored struct {
		b     *backend
		score uint64
	}
	ranked := make([]scored, len(d.backends))
	for i, b := range d.backends {
		h := fnv.New64a()
		h.Write(key[:])
		h.Write([]byte(b.url))
		ranked[i] = scored{b: b, score: h.Sum64()}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].b.url < ranked[j].b.url
	})
	out := make([]*backend, len(ranked))
	for i, s := range ranked {
		out[i] = s.b
	}
	return out
}

// Handler returns the dispatcher's HTTP routes:
//
//	POST /compile — routed to a worker by request identity
//	GET  /healthz — dispatcher liveness
//	GET  /readyz  — 503 when no backend is currently available
//	GET  /stats   — DispatchStats JSON
//	GET  /metrics — Prometheus text exposition (after Instrument)
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", d.handleCompile)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "backends": len(d.backends),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		avail := d.availableBackends()
		status, state := http.StatusOK, "ready"
		if avail == 0 {
			status, state = http.StatusServiceUnavailable, "no backend available"
		}
		writeJSON(w, status, map[string]any{"status": state, "available_backends": avail})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if d.reg == nil {
			http.Error(w, "metrics not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", obs.TextContentType)
		_ = d.reg.WriteText(w)
	})
	return mux
}

func (d *Dispatcher) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &Result{Error: "POST required"})
		return
	}
	d.requests.Add(1)
	// Admission control first: shedding must stay cheap under overload,
	// so it happens before the body is even read.
	if d.admitted.Add(1) > int64(d.opts.QueueLimit) {
		d.admitted.Add(-1)
		d.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &Result{Error: "dispatcher saturated; retry"})
		return
	}
	defer d.admitted.Add(-1)
	if d.inflightGauge != nil {
		d.inflightGauge.Add(1)
		defer d.inflightGauge.Add(-1)
	}

	// Identify just far enough to route: a request the workers would
	// reject is rejected here, once, instead of N times, and a body seen
	// before is routed from its digest without parsing it again.
	b, err := d.ids.identify(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &Result{Error: err.Error()})
		return
	}

	start := time.Now()
	status, hdr, respBody, err := d.forward(r.Context(), b.key, b.raw)
	if d.forwardSeconds != nil {
		d.forwardSeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		d.failed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusBadGateway, &Result{Error: fmt.Sprintf("no backend could serve the request: %v", err)})
		return
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
}

// forward tries the rendezvous order, each candidate once, until a
// backend answers authoritatively. Worker responses — 200, 4xx, 422 —
// are relayed as-is; transport failures, 503 (worker saturated) and
// other 5xx mark the backend down for the cooldown and fail over to the
// next one after a jittered backoff.
func (d *Dispatcher) forward(ctx context.Context, key codec.Hash, body []byte) (int, http.Header, []byte, error) {
	ranked := d.rank(key)
	now := time.Now()
	// Prefer available backends in rendezvous order; if every backend is
	// ejected, fall back to the full order — trying a sick worker beats
	// refusing outright, and a success un-ejects it.
	candidates := make([]*backend, 0, len(ranked))
	for _, b := range ranked {
		if b.available(now) {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		candidates = ranked
	}
	var lastErr error
	for i, b := range candidates {
		if i > 0 {
			d.retries.Add(1)
			// Exponential backoff with ±50% jitter, so synchronized
			// failovers from many concurrent requests spread out instead
			// of stampeding the next backend in lockstep.
			base := d.opts.RetryBaseDelay << (i - 1)
			delay := base/2 + time.Duration(rand.Int64N(int64(base)))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			}
		}
		status, hdr, respBody, err := d.tryBackend(ctx, b, body)
		if err == nil && status != http.StatusServiceUnavailable && status/100 != 5 {
			b.forwards.Add(1)
			b.downUntil.Store(0) // a success un-ejects immediately
			return status, hdr, respBody, nil
		}
		if err != nil {
			b.failures.Add(1)
			lastErr = err
		} else {
			// The worker itself shed (503) or failed (5xx): honor its
			// backpressure by going elsewhere for a while.
			b.saturated.Add(1)
			lastErr = fmt.Errorf("%s: status %d", b.url, status)
		}
		b.downUntil.Store(time.Now().Add(d.opts.Cooldown).UnixNano())
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err()
		}
	}
	return 0, nil, nil, lastErr
}

// tryBackend performs one forward attempt.
func (d *Dispatcher) tryBackend(ctx context.Context, b *backend, body []byte) (int, http.Header, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/compile", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: %w", b.url, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: read response: %w", b.url, err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// BackendStats is one backend's row in DispatchStats.
type BackendStats struct {
	URL string `json:"url"`
	// Forwards counts authoritative responses relayed from this backend;
	// Failures transport-level attempt failures; Saturated 503/5xx
	// answers that triggered failover.
	Forwards  uint64 `json:"forwards"`
	Failures  uint64 `json:"failures"`
	Saturated uint64 `json:"saturated"`
	// Available is the routing eligibility right now (ready and not in a
	// failure cooldown).
	Available bool `json:"available"`
}

// DispatchStats is the dispatcher's /stats document. Its metric-tagged
// fields are also its /metrics families.
type DispatchStats struct {
	UptimeSeconds int64          `json:"uptime_seconds" metric:"mm_fleet_uptime_seconds" help:"Seconds since the dispatcher started."`
	Requests      uint64         `json:"requests" metric:"mm_fleet_requests_total" help:"Requests accepted by the dispatcher."`
	Shed          uint64         `json:"shed" metric:"mm_fleet_shed_total" help:"Requests shed with 503 by dispatcher admission control."`
	Retries       uint64         `json:"retries" metric:"mm_fleet_retries_total" help:"Failover attempts after a backend failure or 503."`
	Failed        uint64         `json:"failed" metric:"mm_fleet_failed_total" help:"Requests that exhausted every backend."`
	Admitted      int64          `json:"admitted" metric:"mm_fleet_admitted" help:"Requests currently admitted by the dispatcher."`
	QueueLimit    int            `json:"queue_limit" metric:"mm_fleet_queue_limit" help:"Admission limit on requests in flight through the dispatcher."`
	Backends      []BackendStats `json:"backends"`
}

// Stats returns a snapshot of the dispatcher counters.
func (d *Dispatcher) Stats() DispatchStats {
	now := time.Now()
	st := DispatchStats{
		UptimeSeconds: int64(time.Since(d.started).Seconds()),
		Requests:      d.requests.Load(),
		Shed:          d.shed.Load(),
		Retries:       d.retries.Load(),
		Failed:        d.failed.Load(),
		Admitted:      d.admitted.Load(),
		QueueLimit:    d.opts.QueueLimit,
	}
	for _, b := range d.backends {
		st.Backends = append(st.Backends, BackendStats{
			URL:       b.url,
			Forwards:  b.forwards.Load(),
			Failures:  b.failures.Load(),
			Saturated: b.saturated.Load(),
			Available: b.available(now),
		})
	}
	return st
}

// availableBackends counts the backends eligible for routing right now.
func (d *Dispatcher) availableBackends() int {
	now := time.Now()
	n := 0
	for _, b := range d.backends {
		if b.available(now) {
			n++
		}
	}
	return n
}

// Instrument registers the dispatcher's mm_fleet_* metrics into reg and
// makes /metrics serve it: the forward latency histogram, live backend
// and in-flight gauges, and one family per metric-tagged field of
// DispatchStats, read from one Stats() snapshot per exposition so /stats
// and /metrics agree. Call before serving.
func (d *Dispatcher) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.reg = reg
	d.forwardSeconds = reg.Histogram("mm_fleet_forward_seconds",
		"End-to-end forward latency through the dispatcher in seconds.",
		obs.DurationBuckets)
	d.inflightGauge = reg.Gauge("mm_fleet_inflight",
		"Requests currently being dispatched.")
	reg.GaugeFunc("mm_fleet_backends", "Configured backend count.",
		func() float64 { return float64(len(d.backends)) })
	reg.GaugeFunc("mm_fleet_backends_available", "Backends currently eligible for routing.",
		func() float64 { return float64(d.availableBackends()) })
	reg.CounterFunc("mm_fleet_backend_errors_total", "Transport-level forward failures across all backends.",
		func() float64 {
			var n uint64
			for _, b := range d.backends {
				n += b.failures.Load()
			}
			return float64(n)
		})
	obs.RegisterSnapshot(reg, d.Stats)
}

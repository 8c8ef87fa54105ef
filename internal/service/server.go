package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/obs"
)

// maxRequestBytes bounds a compile request body (BLIF text compresses the
// wire format poorly, but even the paper's largest benchmarks are far
// below this).
const maxRequestBytes = 64 << 20

// Server is the long-running compile service: it owns one flow.Cache
// (usually store-backed, so results survive the process) shared by every
// request, bounds concurrent flow executions with a worker semaphore, and
// deduplicates identical in-flight requests — N clients submitting the
// same mode set while it compiles share a single flow execution and all
// receive its result.
type Server struct {
	cache   *flow.Cache
	workers int
	sem     chan struct{}

	// maxQueue bounds how many admitted requests may wait beyond the
	// running workers; 0 disables admission control (every request
	// queues). With a limit, request number workers+maxQueue+1 is shed
	// with 503 + Retry-After instead of queueing unboundedly — the
	// backpressure a dispatcher converts into retry-on-another-worker.
	maxQueue int
	admitted atomic.Int64

	// ids turns request bodies into RequestKeys, from their digest when
	// the same bytes were identified before, and remembers the results
	// of digests served from the store.
	ids keyMemo

	mu       sync.Mutex
	inflight map[codec.Hash]*call

	started time.Time

	requests, keyMemoHits, resultMemoHits, deduped, compiles, failures, shed atomic.Uint64

	// Observability (all nil/zero when Instrument was never called; every
	// use is nil-safe, so the uninstrumented server pays nothing).
	reg            *obs.Registry
	compileSeconds *obs.HistogramVec
	inflightGauge  *obs.Gauge
	pprof          bool

	// testHookBeforeCompile, when set, runs in the winning request's
	// goroutine after it registered as in-flight and before it compiles —
	// the dedup test parks the compile there until every duplicate has
	// arrived, making the single-execution assertion timing-independent.
	testHookBeforeCompile func()
}

// call is one in-flight compile execution; duplicates block on done and
// read the shared outcome.
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// NewServer returns a server executing at most workers concurrent
// compiles (<= 0 means 1) against the given cache (nil for uncached).
func NewServer(cache *flow.Cache, workers int) *Server {
	if workers <= 0 {
		workers = 1
	}
	return &Server{
		cache:    cache,
		workers:  workers,
		sem:      make(chan struct{}, workers),
		inflight: map[codec.Hash]*call{},
		started:  time.Now(),
	}
}

// Instrument registers the server's metrics into reg and makes the
// /metrics route serve it as Prometheus text. Registered families:
//
//   - mm_compile_seconds{path=cold|warm|delta|dedup} — request latency
//     histogram by serving path;
//   - mm_requests_inflight and mm_compile_workers_busy — live gauges;
//   - one family per metric-tagged field of StatsSnapshot (its traffic
//     counters, queue gauges and the nested mm_cache_* / mm_store_*
//     families of flow.Stats), read from one Stats() snapshot per
//     exposition, so /metrics and /stats always agree and one scrape is
//     internally coherent.
//
// The same registry also receives the flows' mm_route_* / mm_anneal_*
// work metrics (it is threaded into every compile's Env). Call before
// serving; not safe to call concurrently with requests.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.compileSeconds = reg.HistogramVec("mm_compile_seconds",
		"Compile request latency in seconds by serving path (cold, warm, delta, dedup).",
		obs.DurationBuckets, "path")
	s.inflightGauge = reg.Gauge("mm_requests_inflight",
		"Compile requests currently being served (including deduplicated joiners).")
	reg.GaugeFunc("mm_compile_workers_busy",
		"Compile workers currently executing a flow.",
		func() float64 { return float64(len(s.sem)) })
	obs.RegisterSnapshot(reg, s.Stats)
}

// SetQueueLimit bounds the compile admission queue: at most limit
// requests may be waiting beyond the ones the worker pool is executing;
// excess requests are shed immediately with 503 + Retry-After. limit <= 0
// disables shedding (the pre-fleet behaviour). Call before serving; not
// safe to call concurrently with requests.
func (s *Server) SetQueueLimit(limit int) {
	if limit < 0 {
		limit = 0
	}
	s.maxQueue = limit
}

// admissionLimit is the total number of in-flight /compile requests
// (executing + queued + deduplicated joiners) the server accepts; 0 means
// unbounded.
func (s *Server) admissionLimit() int64 {
	if s.maxQueue <= 0 {
		return 0
	}
	return int64(s.workers + s.maxQueue)
}

// saturated reports whether the admission queue is at its limit — the
// readiness signal a dispatcher uses to stop sending work here.
func (s *Server) saturated() bool {
	limit := s.admissionLimit()
	return limit > 0 && s.admitted.Load() >= limit
}

// EnablePprof mounts net/http/pprof's profiling routes under /debug/pprof/
// on the next Handler() call. Opt-in: profiling endpoints expose stacks
// and heap contents, so the daemon only serves them behind its -pprof
// flag.
func (s *Server) EnablePprof() { s.pprof = true }

// Handler returns the service's HTTP routes:
//
//	POST /compile — CompileRequest JSON in, Result JSON out
//	GET  /healthz — liveness: {"status":"ok"} while the process serves
//	GET  /readyz  — readiness: 503 while the admission queue is saturated
//	                or the remote store tier is unreachable
//	GET  /stats   — traffic counters and cache statistics
//	GET  /metrics — Prometheus text exposition (after Instrument)
//	GET  /debug/pprof/* — profiling (after EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = s.reg.WriteText(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &Result{Error: "POST required"})
		return
	}
	// Admission control: past the bounded queue the request is shed NOW,
	// cheaply, instead of parking on the worker semaphore forever. The
	// Retry-After tells well-behaved clients (and the dispatcher, which
	// prefers another backend) when to come back.
	if limit := s.admissionLimit(); limit > 0 {
		if s.admitted.Add(1) > limit {
			s.admitted.Add(-1)
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, &Result{Error: "compile queue saturated; retry"})
			return
		}
		defer s.admitted.Add(-1)
	}
	s.requests.Add(1)
	b, err := s.ids.identify(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &Result{Error: err.Error()})
		return
	}
	if b.memoHit {
		s.keyMemoHits.Add(1)
	}

	start := time.Now()
	s.inflightGauge.Add(1)
	defer s.inflightGauge.Add(-1)

	// digest → remembered result → store → dedup → compile: a result
	// this process already served from the store is answered from
	// memory, a stored one is served before anything else, and only a
	// store miss, which must compile, needs the parsed modes.
	run := startRun(Env{Cache: s.cache, Obs: s.reg})
	run.key = b.key
	if res, size := run.warm(b.res); res != nil {
		if b.res != nil {
			s.resultMemoHits.Add(1)
		} else {
			s.ids.remember(b, res, size)
		}
		s.compiles.Add(1)
		s.observeCompile("warm", start)
		s.respond(w, res, nil)
		return
	}
	if err := b.parse(); err != nil {
		writeJSON(w, http.StatusBadRequest, &Result{Error: err.Error()})
		return
	}
	s.mu.Lock()
	if c, ok := s.inflight[b.key]; ok {
		// An identical compile is already executing: join it.
		s.mu.Unlock()
		s.deduped.Add(1)
		<-c.done
		s.observeCompile("dedup", start)
		s.respond(w, c.res, c.err)
		return
	}
	c := &call{done: make(chan struct{})}
	s.inflight[b.key] = c
	s.mu.Unlock()

	if s.testHookBeforeCompile != nil {
		s.testHookBeforeCompile()
	}
	s.execute(c, run, b)
	s.observeCompile(compilePath(c), start)
	s.respond(w, c.res, c.err)
}

// compilePath classifies how a winning (non-deduplicated) compile was
// served, for the latency histogram's path label.
func compilePath(c *call) string {
	if c.res != nil && c.res.Delta != nil && c.res.Delta.UsedBaseline {
		return "delta"
	}
	return "cold"
}

func (s *Server) observeCompile(path string, start time.Time) {
	if s.compileSeconds == nil {
		return
	}
	s.compileSeconds.With(path).Observe(time.Since(start).Seconds())
}

// execute runs the winning request's compile. The unwind work — freeing
// the worker slot, unregistering the in-flight entry, waking the
// duplicates — runs in a defer so that a panicking flow (we parse
// arbitrary BLIF into code paths that panic on broken invariants) cannot
// wedge the daemon: without it the duplicates would block on done
// forever and the semaphore slot would leak until, after `workers`
// panics, no request could ever compile again.
func (s *Server) execute(c *call, run *compileRun, b *compileBody) {
	s.sem <- struct{}{} // bound concurrent flow executions
	s.compiles.Add(1)
	defer func() {
		if r := recover(); r != nil {
			c.res, c.err = nil, fmt.Errorf("service: compile panicked: %v", r)
		}
		<-s.sem
		s.mu.Lock()
		delete(s.inflight, b.key)
		s.mu.Unlock()
		close(c.done)
	}()
	c.res, _, c.err = run.compile(b.nls, &b.req)
}

// respond writes a compile outcome: 200 with the result, or 422 with the
// error folded into the Result schema (a mode set that does not route is
// a property of the request, not a server fault). res may be shared by
// every deduplicated client of one execution, so the error rides in a
// per-response copy — mutating the shared value here would race.
func (s *Server) respond(w http.ResponseWriter, res *Result, err error) {
	if err != nil {
		s.failures.Add(1)
		out := Result{}
		if res != nil {
			out = *res
		}
		out.Error = err.Error()
		writeJSON(w, http.StatusUnprocessableEntity, &out)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
	})
}

// handleReadyz is the readiness probe: liveness says "the process runs",
// readiness says "sending a compile here right now is useful". A worker
// is unready while its admission queue is saturated (requests would be
// shed anyway) or while its remote store tier is unreachable (it would
// compile cold work some other worker already did) — either way the
// dispatcher should prefer a healthier backend until the condition
// clears.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.saturated() {
		reasons = append(reasons, "compile queue saturated")
	}
	if s.cache != nil && !s.cache.Store().RemoteHealthy() {
		reasons = append(reasons, "remote store unreachable")
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready", "reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// StatsSnapshot is the /stats document. Its metric-tagged fields, and
// those of the nested flow.Stats, are also its /metrics families.
type StatsSnapshot struct {
	UptimeSeconds  int64  `json:"uptime_seconds" metric:"mm_uptime_seconds" help:"Seconds since the server started."`
	Workers        int    `json:"workers" metric:"mm_compile_workers" help:"Size of the compile worker pool."`
	Requests       uint64 `json:"requests" metric:"mm_requests_total" help:"Compile requests accepted."`
	KeyMemoHits    uint64 `json:"key_memo_hits" metric:"mm_requests_key_memo_hits_total" help:"Requests identified from the digest of a body seen before, without parsing it."`
	ResultMemoHits uint64 `json:"result_memo_hits" metric:"mm_requests_result_memo_hits_total" help:"Requests answered with a result remembered from an earlier warm store hit, without reading the store."`
	Deduped        uint64 `json:"deduped" metric:"mm_requests_deduped_total" help:"Requests joined to an identical in-flight compile."`
	Compiles       uint64 `json:"compiles" metric:"mm_compiles_total" help:"Compiles run or served warm from the result store (deduplicated joiners excluded)."`
	Failures       uint64 `json:"failures" metric:"mm_compile_failures_total" help:"Compiles that returned an error."`
	// Shed counts requests refused with 503 by admission control;
	// Admitted and QueueLimit describe the queue right now (QueueLimit 0
	// = shedding disabled).
	Shed       uint64 `json:"shed" metric:"mm_requests_shed_total" help:"Requests refused with 503 by admission control."`
	Admitted   int64  `json:"admitted" metric:"mm_compile_admitted" help:"Compile requests currently admitted (executing, queued or joined)."`
	QueueLimit int64  `json:"queue_limit" metric:"mm_compile_queue_limit" help:"Admission limit on in-flight compile requests (0: unbounded)."`
	// Inflight counts distinct compile executions in flight; the
	// deduplicated joiners of one share it.
	Inflight int        `json:"inflight" metric:"mm_compiles_inflight" help:"Distinct compile executions in flight (deduplicated joiners share one)."`
	Cache    flow.Stats `json:"cache"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() StatsSnapshot {
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	snap := StatsSnapshot{
		UptimeSeconds:  int64(time.Since(s.started).Seconds()),
		Workers:        s.workers,
		Requests:       s.requests.Load(),
		KeyMemoHits:    s.keyMemoHits.Load(),
		ResultMemoHits: s.resultMemoHits.Load(),
		Deduped:        s.deduped.Load(),
		Compiles:       s.compiles.Load(),
		Failures:       s.failures.Load(),
		Shed:           s.shed.Load(),
		Admitted:       s.admitted.Load(),
		QueueLimit:     s.admissionLimit(),
		Inflight:       inflight,
	}
	if s.cache != nil {
		snap.Cache = s.cache.Stats()
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

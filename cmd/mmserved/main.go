// Command mmserved is the long-running compile daemon: it keeps one
// flow.Cache — optionally backed by a persistent content-addressed
// artifact store — warm across requests, so repeated compilations of the
// same modes are served from cached placements and identical requests in
// flight share a single flow execution.
//
// Endpoints:
//
//	POST /compile — service.CompileRequest JSON in, service.Result out
//	GET  /healthz — liveness probe
//	GET  /stats   — request counters + cache statistics
//	GET  /metrics — Prometheus text exposition of the same counters plus
//	                request-latency histograms and route/anneal work
//	GET  /debug/pprof/* — profiling (only with -pprof)
//
// `mmflow -remote http://host:port ...` submits its BLIF modes here
// instead of compiling locally.
//
// Fleet roles. With -remotestore the worker layers a shared remote
// artifact tier (served by mmstored, or another mmserved's /blob/ view
// of its cachedir) over its local store: artifacts any fleet member
// compiled are fetched instead of recomputed, and local results are
// pushed back write-through. With -backends the process is a dispatcher
// instead of a worker: it shards /compile requests over the listed
// workers by request key (rendezvous hashing, so fleet-wide in-flight
// dedup keeps working), sheds overload with 503 + Retry-After, and
// retries transient backend failures on the next replica.
//
// Usage:
//
//	mmserved [-addr :8433] [-j N] [-cachedir DIR] [-cachemb MB]
//	         [-remotestore URL] [-queue N] [-pprof] [-logjson]
//	mmserved -backends http://w1:8433,http://w2:8433 [-addr :8432] [-queue N]
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8433", "listen address")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "maximum concurrent compile executions")
	cachedir := flag.String("cachedir", "", "persistent artifact-store directory for compile results and their ECO baselines (empty: in-memory cache only, or a temporary directory with -remotestore)")
	cachemb := flag.Int64("cachemb", 0, "artifact-store size cap in MiB (0: uncapped)")
	remotestore := flag.String("remotestore", "", "base URL of a shared remote artifact store (mmstored); local misses fall through to it and local results are pushed back")
	queue := flag.Int("queue", 0, "admission queue depth beyond the worker pool; excess requests are shed with 503 + Retry-After (0: unbounded)")
	backends := flag.String("backends", "", "comma-separated worker URLs: run as a dispatcher sharding /compile over them instead of compiling locally")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling under /debug/pprof/")
	logjson := flag.Bool("logjson", false, "emit structured JSON logs on stderr instead of human-readable lines")
	flag.Parse()

	log := newLogger(*logjson)

	if *backends != "" {
		runDispatcher(log, *addr, strings.Split(*backends, ","), *queue)
		return
	}

	cache := flow.NewCache()
	if *cachedir == "" && *remotestore != "" {
		// The remote tier write-through needs a local store to land in;
		// give a stateless worker a throwaway one.
		dir, err := os.MkdirTemp("", "mmserved-cache-")
		if err != nil {
			fatal(log, err)
		}
		defer os.RemoveAll(dir)
		*cachedir = dir
	}
	if *cachedir != "" {
		st, err := store.Open(*cachedir, *cachemb<<20)
		if err != nil {
			fatal(log, err)
		}
		if *remotestore != "" {
			st.AttachRemote(store.NewRemote(*remotestore, 0))
			log.Info("remote store attached", "url", *remotestore)
		}
		cache = flow.NewCacheWithStore(st)
		log.Info("artifact store opened", "dir", st.Root(), "cap_mb", *cachemb)
	}

	srv := service.NewServer(cache, *jobs)
	srv.SetQueueLimit(*queue)
	srv.Instrument(obs.NewRegistry())
	if *pprofOn {
		srv.EnablePprof()
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then let
	// in-flight compiles finish (bounded, so clients are not cut off
	// mid-response).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", *jobs)
		done <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(log, err)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(log, err)
		}
		log.Info("done", "final_stats", cache.Stats().String())
	}
}

// runDispatcher serves the fleet front door: requests shard over the
// worker backends by request key and overload is shed, never queued
// unboundedly.
func runDispatcher(log *slog.Logger, addr string, backends []string, queue int) {
	opts := service.DefaultDispatchOptions()
	if queue > 0 {
		opts.QueueLimit = queue
	}
	d, err := service.NewDispatcher(backends, opts)
	if err != nil {
		fatal(log, err)
	}
	defer d.Close()
	d.Instrument(obs.NewRegistry())
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		log.Info("dispatching", "addr", addr, "backends", backends, "queue", opts.QueueLimit)
		done <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(log, err)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(log, err)
		}
	}
}

// newLogger builds the daemon's stderr logger: human-readable text by
// default, one-JSON-object-per-line under -logjson (for log shippers).
func newLogger(asJSON bool) *slog.Logger {
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}

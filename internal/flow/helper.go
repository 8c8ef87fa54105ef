package flow

import (
	"context"

	"repro/internal/merge"
	"repro/internal/obs"
)

// The placement helper: the DCS place phase (a combined placement and
// its TPlace refinement, once per objective) reads neither the routed
// MDR modes nor the channel width, so a compile can compute it on a
// second core while it sizes the region (cold path) or routes the MDR
// modes (delta path). The helper fills the compile's placement memo
// ahead of need; the flow itself still asks the memo for each placement
// exactly where the serial code computes it, so it waits for one the
// helper is computing and takes one the helper has finished. The
// helper runs only on a core no compile is using, so a saturated pool
// (GOMAXPROCS=1, mmbench -j N, mmserved -j N) compiles exactly as
// serially.
//
// The request trace stays strictly nested per thread: the helper
// records no spans. The flow records its merge and tplace spans where
// the serial code does — around its own computation, or around its
// wait for the helper's two stages, labelled prefetched.

// startHelper runs fill with a configuration of its own on an idle core
// of the process's pool, if there is one, and returns the function that
// cancels it and waits for it to return; the compile calls that before
// it returns, so no helper outlives its compile. fill must not trace.
func startHelper(cfg Config, fill func(hcfg Config)) (join func()) {
	if ok, _ := cores.tryAcquire(); !ok {
		return func() {}
	}
	ctx, cancel := context.WithCancel(cfg.context())
	hcfg := cfg
	hcfg.Ctx, hcfg.RouteOpts.Ctx, hcfg.Trace = ctx, ctx, nil
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer cores.release()
		fill(hcfg)
	}()
	return func() {
		cancel()
		<-done
	}
}

// placeShared returns the placement of k from places, computing it with
// compute when neither a caller nor the helper has begun to; compute
// records its own merge and tplace spans. The first caller to take a
// placement the helper computes records them instead: a merge span of
// objective obj over its wait for the helper's first stage and a tplace
// span over its wait for the rest, both labelled prefetched.
// The merge span is returned (nil when there is none) for the caller
// to label with what the helper did.
func placeShared[K comparable, V any](cfg Config, places *memo[K, V], k K, obj merge.Objective, compute func() (V, error)) (V, *obs.Span, error) {
	ctx := cfg.context()
	e, created, staged := places.claim(k)
	if created {
		v, err := places.settle(ctx, k, e, compute)
		return v, nil, err
	}
	var sp *obs.Span
	if staged != nil {
		sp = cfg.Trace.Start("merge", "objective", obj.String(), "prefetched", "true")
		select {
		case <-staged:
		case <-ctx.Done():
		}
		sp.End()
		defer cfg.Trace.Start("tplace", "prefetched", "true").End()
	}
	if v, final, err := e.wait(ctx); final {
		return v, sp, err
	}
	// The helper was cancelled mid-computation (its compile is ending).
	v, _, err := places.get(ctx, k, compute)
	return v, sp, err
}

package route

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// countingCtx reports cancellation from its cancelAt-th Err call on,
// counting the calls: it pins how often, and therefore where, the router
// polls its context.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestRouteCancelWithinOneIteration: the router polls its context once
// per negotiation iteration and returns context.Canceled at the first
// poll that sees it — no further iteration runs.
func TestRouteCancelWithinOneIteration(t *testing.T) {
	g, nets := unroutableWorkload()
	for _, cancelAt := range []int{1, 3} {
		ctx := &countingCtx{Context: context.Background(), cancelAt: cancelAt}
		res, err := Route(g, nets, Options{MaxIters: 50, Ctx: ctx})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel at poll %d: Route = (%v, %v), want (nil, context.Canceled)", cancelAt, res, err)
		}
		if ctx.calls != cancelAt {
			t.Fatalf("cancel at poll %d: context polled %d times", cancelAt, ctx.calls)
		}
	}
}

// TestRouteCancelStopsPool cancels a parallel route mid-negotiation, once
// its worker pool is seen running: the route returns context.Canceled
// and the pool is gone afterwards, leaving the goroutine count where it
// started.
func TestRouteCancelStopsPool(t *testing.T) {
	g, nets := unroutableWorkload()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	poolSeen := make(chan bool, 1)
	go func() {
		// The canceller plus the 3 pool workers (the caller is worker 0).
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() < before+4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		poolSeen <- runtime.NumGoroutine() >= before+4
		cancel()
	}()
	_, err := Route(g, nets, Options{MaxIters: 1 << 30, Workers: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Route = %v, want context.Canceled", err)
	}
	if !<-poolSeen {
		t.Fatal("the worker pool never ran before the cancel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled route, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouteOnStall: a route that cannot converge calls OnStall after
// every full-rip-up iteration — here from its escalation to the end of
// its budget, as its congestion never beats its best again — and the
// hook changes nothing about the outcome.
func TestRouteOnStall(t *testing.T) {
	g, nets := unroutableWorkload()
	_, want := Route(g, nets, Options{MaxIters: 50})
	if want == nil {
		t.Skip("architecture routed everything; congestion scenario too weak")
	}
	var iters []int
	_, err := Route(g, nets, Options{MaxIters: 50, OnStall: func(iter int) { iters = append(iters, iter) }})
	if fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("with OnStall: %v, without: %v", err, want)
	}
	if len(iters) == 0 || iters[0] <= stallFullRip || iters[len(iters)-1] != 50 {
		t.Fatalf("OnStall at iterations %v, want a run from past the escalation to 50", iters)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[i-1]+1 {
			t.Fatalf("OnStall at iterations %v, want every iteration once escalated", iters)
		}
	}
}

package route

import (
	"context"
	"errors"
	"fmt"
	"testing"
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

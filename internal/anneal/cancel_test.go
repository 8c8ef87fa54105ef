package anneal

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// pollCtx reports cancellation from its cancelAt-th Err call on.
type pollCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestRunCancelAtBatchBoundary: the batched kernel polls its context once
// per batch and stops at the first poll that sees it cancelled, while a
// live context leaves the run bit-identical to one without a context.
func TestRunCancelAtBatchBoundary(t *testing.T) {
	run := func(ctx context.Context) ([]int, RunStats) {
		rng := rand.New(rand.NewSource(321))
		m := newLineMover(40, rng, false)
		stats := Run(m, Config{Effort: 1, Span: 40, Cells: 40, Nets: 39, Ctx: ctx}, rng)
		return append([]int(nil), m.posOf...), stats
	}
	basePos, baseStats := run(nil)
	pos, stats := run(context.Background())
	if !reflect.DeepEqual(basePos, pos) || baseStats != stats {
		t.Fatal("a live context changed the anneal")
	}
	ctx := &pollCtx{Context: context.Background(), cancelAt: 3}
	_, stats = run(ctx)
	if stats.Batches != 2 || ctx.calls != 3 {
		t.Fatalf("cancelled at poll 3: %d batches ran, context polled %d times; want 2 and 3", stats.Batches, ctx.calls)
	}
}

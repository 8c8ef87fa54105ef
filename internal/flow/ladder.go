package flow

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Attempt outcomes of a retry ladder, as labelled on traces and on
// mm_flow_attempts_total.
const (
	// outcomeWon is the attempt whose result the ladder returned.
	outcomeWon = "won"
	// outcomeFailed is an attempt that ran to completion and failed.
	outcomeFailed = "failed"
	// outcomeCanceled is an attempt whose result was discarded: it was
	// cancelled because a lower attempt succeeded (or the caller gave up),
	// or it succeeded but a lower attempt succeeded too.
	outcomeCanceled = "canceled"
)

// ladderWidth is the most attempts of one ladder in flight at once.
const ladderWidth = 2

// corePool accounts the cores this process's compiles keep busy, so a
// compile can tell whether a speculative attempt would run on an idle
// core or take one from a compile doing useful work. Every compile in
// progress holds one core unconditionally (acquire) — a compile runs
// every kernel serially, so one compile is exactly one core — and a
// speculative attempt takes another only if one is free (tryAcquire). The pool has
// size cores, or GOMAXPROCS when size is 0 — so at GOMAXPROCS=1 no
// attempt is ever speculative.
type corePool struct {
	size  int
	mu    sync.Mutex
	used  int
	freed chan struct{} // closed, and dropped, by the next release
}

// cores is the process-wide pool every RunComparison draws on.
var cores corePool

func (p *corePool) acquire() {
	p.mu.Lock()
	p.used++
	p.mu.Unlock()
}

// tryAcquire takes a core if one is free. When none is, it returns a
// channel closed by the next release instead.
func (p *corePool) tryAcquire() (bool, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := p.size
	if size == 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if p.used < size {
		p.used++
		return true, nil
	}
	if p.freed == nil {
		p.freed = make(chan struct{})
	}
	return false, p.freed
}

func (p *corePool) release() {
	p.mu.Lock()
	p.used--
	if p.freed != nil {
		close(p.freed)
		p.freed = nil
	}
	p.mu.Unlock()
}

// ladder runs a retry loop whose attempt k (0 ≤ k < n) is a pure function
// of k, starting attempts early when that costs no useful work, and
// returns what the serial loop "for k := 0; ; k++ { if ok { return } }"
// would: the result of the lowest attempt that succeeds, or — when all n
// fail — attempt n-1's error.
//
// The caller holds one core of pool, which runs the lowest undecided
// attempt. A second, speculative attempt — the next index — starts only
// once the attempt below it has called its doubt function (it has hit
// the point where failing attempts spend their time) or failed, and only
// on a core tryAcquire finds idle; the ladder waits for either. Attempts
// start in index order, so the attempts in flight are always the lowest
// ones not yet decided. When attempt k succeeds, every higher attempt is useless:
// those running are cancelled through their context, none is started,
// and the ladder waits for all of them to return before it does, so no
// attempt outlives the call. A failure starts the next attempt. When
// no attempt doubts, or no core is idle, this is exactly the serial loop.
//
// outcomes[k] labels every started attempt (outcomeWon, outcomeFailed or
// outcomeCanceled). If ctx itself is cancelled the ladder stops starting
// attempts and returns ctx.Err(): the results of cut-short attempts
// prove nothing about the attempts after them.
func ladder[T any](ctx context.Context, n int, pool *corePool, attempt func(ctx context.Context, k int, doubt func()) (T, error)) (T, []string, error) {
	type done struct {
		k   int
		v   T
		err error
	}
	results := make(chan done)
	doubts := make(chan int, n) // each attempt sends at most once
	var cancels []context.CancelFunc
	vals := make([]T, n)
	errs := make([]error, n)
	doubted := make([]bool, n)
	best, running := n, 0 // best: lowest success so far (n: none yet)
	spare := 0            // pool cores held beyond the caller's own
	for {
		var freed <-chan struct{}
		for running < ladderWidth && len(cancels) < n && best == n && ctx.Err() == nil {
			k := len(cancels)
			if running > 0 {
				if !doubted[k-1] {
					break
				}
				ok, wait := pool.tryAcquire()
				if !ok {
					freed = wait
					break
				}
				spare++
			}
			actx, cancel := context.WithCancel(ctx)
			cancels = append(cancels, cancel)
			running++
			var once sync.Once
			doubt := func() { once.Do(func() { doubts <- k }) }
			go func() {
				v, err := attempt(actx, k, doubt)
				results <- done{k, v, err}
			}()
		}
		if running == 0 {
			break
		}
		select {
		case d := <-results:
			running--
			if spare > 0 {
				spare--
				pool.release()
			}
			vals[d.k], errs[d.k] = d.v, d.err
			if d.err != nil {
				doubted[d.k] = true // the next attempt is needed unless a lower one wins
			}
			if d.err == nil && d.k < best {
				best = d.k
				for _, cancel := range cancels[best+1:] {
					cancel()
				}
			}
		case k := <-doubts:
			doubted[k] = true
		case <-freed:
		}
	}
	for _, cancel := range cancels {
		cancel()
	}

	outcomes := make([]string, len(cancels))
	ctxErr := ctx.Err()
	for k := range outcomes {
		switch {
		case k == best && ctxErr == nil:
			outcomes[k] = outcomeWon
		case k < best && (ctxErr == nil || !errors.Is(errs[k], ctxErr)):
			outcomes[k] = outcomeFailed
		default:
			outcomes[k] = outcomeCanceled
		}
	}
	var zero T
	switch {
	case ctxErr != nil:
		return zero, outcomes, ctxErr
	case best < n:
		return vals[best], outcomes, nil
	default:
		return zero, outcomes, errs[n-1]
	}
}

package flow

import (
	"context"
	"sync"
	"sync/atomic"
)

// memo is the single-flight memo behind every memoization in this
// package: the cache's graphs and placements, and a compile's DCS
// placements. The first caller of a key computes its value; callers
// arriving meanwhile wait for that computation and share its outcome,
// an error included. A computation ended by the cancellation of its own
// caller's context is not kept: its entry is dropped before its waiters
// wake, and a waiter whose context is live computes the value afresh. A
// waiter whose own context is cancelled returns that context's error.
//
// A value can also be computed ahead of any caller's need (prefill).
// The first caller to find such an entry claims it, which tells it to
// report the computation as its own (see placeShared).
//
// A memo with a positive limit holds at most limit entries: inserting
// into a full memo first empties it wholesale and counts the flush.
// Flushing is always sound — at worst a later caller recomputes — and
// leaves computations in flight unaffected, since their waiters hold
// the entry itself.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	limit   int
	flushes *atomic.Uint64
}

type memoEntry[V any] struct {
	done    chan struct{} // closed once the fields below are final
	v       V
	err     error
	dropped bool // computation cut short by its caller's cancellation
	// staged, on an entry prefill made and no caller has claimed yet, is
	// closed once the computation is past its first stage.
	staged chan struct{}
}

// newMemo returns an empty memo holding at most limit entries (no bound
// when limit is 0), counting its flushes in flushes.
func newMemo[K comparable, V any](limit int, flushes *atomic.Uint64) *memo[K, V] {
	return &memo[K, V]{entries: map[K]*memoEntry[V]{}, limit: limit, flushes: flushes}
}

// get returns the value of k, computing it with compute — which must run
// under ctx — when no caller has. computed reports whether this call ran
// compute.
func (m *memo[K, V]) get(ctx context.Context, k K, compute func() (V, error)) (v V, computed bool, err error) {
	for {
		e, created, _ := m.claim(k)
		if created {
			v, err = m.settle(ctx, k, e, compute)
			return v, true, err
		}
		if v, final, err := e.wait(ctx); final {
			return v, false, err
		}
	}
}

// claim returns the entry of k, creating it when absent, in which case
// the caller must compute it with settle. staged is non-nil when the
// entry was made by prefill and this is the first claim to find it: the
// channel its computation closes once past its first stage.
func (m *memo[K, V]) claim(k K) (e *memoEntry[V], created bool, staged <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok {
		staged, e.staged = e.staged, nil
		return e, false, staged
	}
	return m.insert(k), true, nil
}

// insert adds an empty entry for k; m.mu must be held.
func (m *memo[K, V]) insert(k K) *memoEntry[V] {
	if m.limit > 0 && len(m.entries) >= m.limit {
		m.entries = map[K]*memoEntry[V]{}
		m.flushes.Add(1)
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[k] = e
	return e
}

// settle computes the entry e of k that claim created, under ctx.
func (m *memo[K, V]) settle(ctx context.Context, k K, e *memoEntry[V], compute func() (V, error)) (V, error) {
	e.v, e.err = compute()
	if e.err != nil && ctx.Err() != nil {
		e.dropped = true
		m.mu.Lock()
		if m.entries[k] == e { // not flushed and replaced meanwhile
			delete(m.entries, k)
		}
		m.mu.Unlock()
	}
	close(e.done)
	return e.v, e.err
}

// wait waits for e's computation. It is final unless the entry was
// dropped, when the caller must look k up again.
func (e *memoEntry[V]) wait(ctx context.Context) (v V, final bool, err error) {
	select {
	case <-e.done:
		return e.v, !e.dropped, e.err
	case <-ctx.Done():
		return v, true, ctx.Err()
	}
}

// prefill computes the value of k under ctx ahead of any caller's need,
// unless a caller has begun to. compute calls staged once past its
// first stage; the first claim of the entry waits on that.
func (m *memo[K, V]) prefill(ctx context.Context, k K, compute func(staged func()) (V, error)) {
	m.mu.Lock()
	if _, ok := m.entries[k]; ok {
		m.mu.Unlock()
		return
	}
	e := m.insert(k)
	staged := make(chan struct{})
	e.staged = staged
	m.mu.Unlock()
	var once sync.Once
	stage := func() { once.Do(func() { close(staged) }) }
	m.settle(ctx, k, e, func() (V, error) {
		defer stage()
		return compute(stage)
	})
}

// values returns the values of the finished, successful computations
// the memo holds.
func (m *memo[K, V]) values() []V {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []V
	for _, e := range m.entries {
		select {
		case <-e.done:
			if e.err == nil {
				out = append(out, e.v)
			}
		default: // still computing
		}
	}
	return out
}

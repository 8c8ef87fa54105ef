package flow

import (
	"context"
	"sync"
	"sync/atomic"
)

// memo is the single-flight memo behind every memoization in this
// package: the cache's graphs and placements, and the cold ladder's DCS
// placements. The first caller of a key computes its value; callers
// arriving meanwhile wait for that computation and share its outcome,
// an error included. A computation ended by the cancellation of its own
// caller's context is not kept: its entry is dropped before its waiters
// wake, and a waiter whose context is live computes the value afresh. A
// waiter whose own context is cancelled returns that context's error.
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
		m.mu.Lock()
		e, ok := m.entries[k]
		if !ok {
			if m.limit > 0 && len(m.entries) >= m.limit {
				m.entries = map[K]*memoEntry[V]{}
				m.flushes.Add(1)
			}
			e = &memoEntry[V]{done: make(chan struct{})}
			m.entries[k] = e
			m.mu.Unlock()
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
			return e.v, true, e.err
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			if !e.dropped {
				return e.v, false, e.err
			}
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
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

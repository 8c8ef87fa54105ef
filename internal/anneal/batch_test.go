package anneal

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestBatchedWorkerDeterminism: runs on separate movers share no kernel
// state, so the same seed annealed on several goroutines at once must
// yield the serial run's final state and move/accept/requeue/batch
// statistics on every goroutine.
func TestBatchedWorkerDeterminism(t *testing.T) {
	run := func() ([]int, RunStats) {
		rng := rand.New(rand.NewSource(321))
		m := newLineMover(40, rng, false)
		stats := Run(m, Config{Effort: 1, Span: 40, Cells: 40, Nets: 39}, rng)
		return append([]int(nil), m.posOf...), stats
	}
	basePos, baseStats := run()
	if baseStats.Batches == 0 || baseStats.Moves == 0 {
		t.Fatalf("batched path not exercised: %+v", baseStats)
	}
	const workers = 4
	pos := make([][]int, workers)
	stats := make([]RunStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pos[w], stats[w] = run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !reflect.DeepEqual(basePos, pos[w]) {
			t.Fatalf("final state on goroutine %d differs from serial", w)
		}
		if stats[w] != baseStats {
			t.Fatalf("stats on goroutine %d %+v differ from serial %+v", w, stats[w], baseStats)
		}
	}
}

// TestBatchedImprovesAndStaysExact: quality and bookkeeping sanity of the
// batched protocol on a larger line — the toy problem still optimises,
// the maintained cost matches a from-scratch recompute at the end, and
// the run statistics are consistent with one another.
func TestBatchedImprovesAndStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := newLineMover(60, rng, false)
	start := m.Cost()
	stats := Run(m, Config{Effort: 1, Span: 60, Cells: 60, Nets: 59}, rng)
	if m.Cost() > 0.5*start {
		t.Fatalf("batched annealing did not improve: %v -> %v", start, m.Cost())
	}
	if got := m.fullCost(); got != m.Cost() {
		t.Fatalf("maintained cost %v != recomputed %v", m.Cost(), got)
	}
	if stats.Batches == 0 || stats.Accepted == 0 || stats.Accepted > stats.Moves ||
		stats.Requeued > stats.Moves {
		t.Fatalf("inconsistent run statistics: %+v", stats)
	}
}

// TestAllConflictBatchProgress is the livelock regression: with an
// adversarial mover whose every proposal claims the same footprint key,
// all but the first accepted commit of each batch conflict. The kernel
// must resolve them in-batch (requeue + live re-evaluation), terminate
// and keep exact books.
func TestAllConflictBatchProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := newLineMover(40, rng, true)
	stats := Run(m, Config{Effort: 1, Span: 40, Cells: 40, Nets: 39}, rng)
	if stats.Requeued == 0 {
		t.Fatal("adversarial claims produced no requeues")
	}
	if stats.Accepted == 0 {
		t.Fatal("all-conflict batches made no progress")
	}
	if stats.Requeued >= stats.Moves {
		t.Fatalf("every move requeued (%d of %d): first commit of a batch must be conflict-free",
			stats.Requeued, stats.Moves)
	}
	if got := m.fullCost(); got != m.Cost() {
		t.Fatalf("maintained cost %v != recomputed %v after requeues", m.Cost(), got)
	}
}

// TestAfterBatchHook: the hook must run after every commit cycle, with
// the mover's books exact at each call.
func TestAfterBatchHook(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newLineMover(30, rng, false)
	calls := 0
	stats := Run(m, Config{
		Effort: 0.5, Span: 30, Cells: 30, Nets: 29,
		AfterBatch: func() {
			calls++
			if got := m.fullCost(); got != m.Cost() {
				t.Fatalf("batch %d: maintained cost %v != recomputed %v", calls, m.Cost(), got)
			}
		},
	}, rng)
	if calls != stats.Batches {
		t.Fatalf("AfterBatch ran %d times for %d batches", calls, stats.Batches)
	}
}

// TestBestStart: the multi-start pick depends only on the (cost, seed)
// pairs, never on completion order — shuffling the pairs must select the
// same winning pair, with ties broken towards the lower seed.
func TestBestStart(t *testing.T) {
	costs := []float64{7, 3, 5, 3, 9}
	seeds := []int64{50, 40, 30, 20, 10}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(costs))
		cs := make([]float64, len(costs))
		ss := make([]int64, len(seeds))
		for i, p := range perm {
			cs[i], ss[i] = costs[p], seeds[p]
		}
		best := BestStart(cs, ss)
		if cs[best] != 3 || ss[best] != 20 {
			t.Fatalf("trial %d: picked (%v, %d), want lowest cost 3 at lowest seed 20",
				trial, cs[best], ss[best])
		}
	}
}

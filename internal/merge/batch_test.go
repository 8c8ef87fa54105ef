package merge

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/anneal"
	"repro/internal/lutnet"
)

// TestMergeWorkerDeterminism: combined placements are identical whether
// they run alone or side by side the way job-level workers
// (experiments.Runner -j, mmserved -j) run independent compiles — under
// both objectives, with the two objectives' jobs sharing the mode
// circuits. Under -race it also proves CombinedPlace shares no mutable
// state between calls.
func TestMergeWorkerDeterminism(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 60, 30),
		randomCircuit(t, 61, 30),
		randomCircuit(t, 62, 30),
	}
	a := archFor(modes)
	var opts []Options
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		for seed := int64(7); seed < 9; seed++ {
			opts = append(opts, Options{Seed: seed, Effort: 0.2, Objective: obj})
		}
	}
	want := make([]*Result, len(opts))
	for i, opt := range opts {
		res, err := CombinedPlace("det", modes, a, opt)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want[i] = res
	}
	got := make([]*Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, opt := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = CombinedPlace("det", modes, a, opt)
		}()
	}
	wg.Wait()
	for i, opt := range opts {
		if errs[i] != nil {
			t.Fatalf("concurrent job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%v seed %d: result differs when run beside other jobs", opt.Objective, opt.Seed)
		}
	}
}

// TestMergeMultiStartDeterministic: a multi-start combined placement must
// equal the best single start under the (cost, seed) tiebreak.
func TestMergeMultiStartDeterministic(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	const starts = 3
	var singles []*Result
	costs := make([]float64, starts)
	seeds := make([]int64, starts)
	for i := 0; i < starts; i++ {
		seeds[i] = 9 + int64(i)*anneal.StartSeedStride
		res, err := CombinedPlace("ms", modes, a, Options{Seed: seeds[i], Effort: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, res)
		costs[i] = res.Cost
	}
	want := singles[anneal.BestStart(costs, seeds)]
	res, err := CombinedPlace("ms", modes, a, Options{Seed: 9, Effort: 0.2, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("multi-start differs from best single start (cost %v vs %v)", res.Cost, want.Cost)
	}
}

// TestMergeApplyUndoRestoresState pins down the contract the batch
// protocol rests on, under both objectives: for thousands of proposals
// on evolving state, ApplySlot followed by Undo must leave cellAt, posOf
// and posCost bit-identical, and re-applying the move must reproduce its
// delta exactly.
func TestMergeApplyUndoRestoresState(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 50, 30),
		randomCircuit(t, 51, 30),
		randomCircuit(t, 52, 30),
	}
	a := archFor(modes)
	type snapshot struct {
		cellAt, posOf [][]int32
		posCost       []uint64
	}
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		rng := rand.New(rand.NewSource(14))
		st, err := newState(modes, a, obj, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := func() snapshot {
			var s snapshot
			for m := range st.modes {
				s.cellAt = append(s.cellAt, slices.Clone(st.cellAt[m]))
				s.posOf = append(s.posOf, slices.Clone(st.posOf[m]))
			}
			for _, c := range st.posCost {
				s.posCost = append(s.posCost, math.Float64bits(c))
			}
			return s
		}
		st.SetupBatch(1)
		for i := 0; i < 3000; i++ {
			rlim := 1 + rng.Float64()*float64(a.Width+a.Height)
			if !st.Propose(rng, rlim, 0) {
				continue
			}
			before := snap()
			d := st.ApplySlot(0)
			st.Undo()
			if after := snap(); !reflect.DeepEqual(before, after) {
				t.Fatalf("%v step %d: ApplySlot+Undo did not restore the state", obj, i)
			}
			if rng.Intn(2) == 0 {
				if again := st.ApplySlot(0); math.Float64bits(again) != math.Float64bits(d) {
					t.Fatalf("%v step %d: re-applied delta %v != measured delta %v", obj, i, again, d)
				}
			}
		}
	}
}

// TestMergeBatchAccountingMatchesRecompute extends the incremental
// exact-equality contract to the batched commit/requeue path: after
// EVERY batch commit cycle of a real combined-placement anneal,
// each maintained position cost must equal a from-scratch costAt. The
// run must also exercise the conflict-requeue path.
func TestMergeBatchAccountingMatchesRecompute(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 50, 30),
		randomCircuit(t, 51, 30),
		randomCircuit(t, 52, 30),
	}
	a := archFor(modes)
	rng := rand.New(rand.NewSource(15))
	st, err := newState(modes, a, WireLength, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	nCells := 0
	for _, mi := range st.modes {
		nCells += mi.numCells()
	}
	batch := 0
	stats := anneal.Run(st, anneal.Config{
		Effort: 0.2, Span: a.Width + a.Height,
		Cells: nCells, Nets: st.numNets(),
		AfterBatch: func() {
			batch++
			checkPosCosts(t, st, batch)
		},
	}, rng)
	if stats.Batches == 0 || batch != stats.Batches {
		t.Fatalf("AfterBatch ran %d times for %d batches", batch, stats.Batches)
	}
	if stats.Requeued == 0 {
		t.Fatal("anneal never exercised the conflict-requeue path")
	}
}

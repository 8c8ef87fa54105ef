package place

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/anneal"
	"repro/internal/arch"
)

// placeConcurrently runs one Place per options entry, all at once, the
// way job-level workers (experiments.Runner -j, mmserved -j) run
// independent compiles side by side, and checks every placement equals
// the same options placed alone. Under -race it also proves the placer
// shares no mutable state between calls.
func placeConcurrently(t *testing.T, p *Problem, a arch.Arch, opts []Options) {
	t.Helper()
	want := make([]*Placement, len(opts))
	for i, opt := range opts {
		pl, err := Place(p, a, opt)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want[i] = pl
	}
	got := make([]*Placement, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, opt := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Place(p, a, opt)
		}()
	}
	wg.Wait()
	for i := range opts {
		if errs[i] != nil {
			t.Fatalf("concurrent job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("job %d: placement differs when run beside other jobs", i)
		}
	}
}

// TestPlaceWorkerDeterminism: cold placements of several seeds are
// identical whether they run alone or concurrently as job-level workers.
func TestPlaceWorkerDeterminism(t *testing.T) {
	var opts []Options
	for seed := int64(0); seed < 5; seed++ {
		opts = append(opts, Options{Seed: seed, Effort: 0.3})
	}
	placeConcurrently(t, randomProblem(3, 24, 14, 50), arch.New(7, 7, 4), opts)
}

// TestPlaceRefineWorkerDeterminism: the refine and warm-start paths (Init
// set) are job-level worker deterministic too.
func TestPlaceRefineWorkerDeterminism(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(21, 24, 14, 50)
	seedPl, err := Place(p, a, Options{Seed: 21, Effort: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	placeConcurrently(t, p, a, []Options{
		{Seed: 4, Effort: 0.2, Init: seedPl.SiteOf},
		{Seed: 5, Effort: 0.2, Init: seedPl.SiteOf},
		{Seed: 4, Effort: 0.2, Init: seedPl.SiteOf, WarmStart: true},
	})
}

// TestPlaceMultiStartDeterministic: a multi-start run must equal the best
// of the equivalent single-start runs under the (cost, seed) tiebreak,
// and never be worse than its own single start.
func TestPlaceMultiStartDeterministic(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(31, 24, 14, 50)
	const starts = 4
	var singles []*Placement
	costs := make([]float64, starts)
	seeds := make([]int64, starts)
	for i := 0; i < starts; i++ {
		seeds[i] = 5 + int64(i)*anneal.StartSeedStride
		pl, err := Place(p, a, Options{Seed: seeds[i], Effort: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, pl)
		costs[i] = pl.Cost
	}
	want := singles[anneal.BestStart(costs, seeds)]
	pl, err := Place(p, a, Options{Seed: 5, Effort: 0.3, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, pl) {
		t.Fatalf("multi-start differs from best single start (cost %v vs %v)", pl.Cost, want.Cost)
	}
	if want.Cost > singles[0].Cost {
		t.Fatalf("multi-start pick %v worse than first start %v", want.Cost, singles[0].Cost)
	}
}

// TestApplyUndoRestoresState pins down the contract the batch protocol
// rests on: the kernel measures every proposal by ApplySlot and Undo, so
// for thousands of proposals on evolving state the round trip must leave
// every mutable array bit-identical, and re-applying the move must
// reproduce its delta exactly. A few large nets make the box snapshot
// and shrink-rescan paths fire alongside the small-net rescans.
func TestApplyUndoRestoresState(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(41, 30, 16, 60)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4; i++ {
		cells := rng.Perm(len(p.Cells))[:smallNetPins+2+4*i]
		p.Nets = append(p.Nets, Net{Cells: cells, Weight: 1 + rng.Float64()})
	}
	st, err := newState(p, a.CLBSites(), a.IOSites(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.nLarge == 0 {
		t.Fatal("fixture has no large net")
	}
	type snapshot struct {
		cellAt, posOf []int
		cellX, cellY  []int32
		netCost       []uint64
		boxes         []netBox
	}
	snap := func() snapshot {
		s := snapshot{
			cellAt: slices.Clone(st.cellAt),
			posOf:  slices.Clone(st.posOf),
			cellX:  slices.Clone(st.cellX),
			cellY:  slices.Clone(st.cellY),
			boxes:  slices.Clone(st.boxes),
		}
		for _, c := range st.netCost {
			s.netCost = append(s.netCost, math.Float64bits(c))
		}
		return s
	}
	st.SetupBatch(1)
	for i := 0; i < 4000; i++ {
		rlim := 1 + rng.Float64()*float64(a.Width+a.Height)
		if !st.Propose(rng, rlim, 0) {
			continue
		}
		before := snap()
		d := st.ApplySlot(0)
		st.Undo()
		if after := snap(); !reflect.DeepEqual(before, after) {
			t.Fatalf("step %d: ApplySlot+Undo did not restore the state", i)
		}
		// Random walk: keep some moves so later proposals see varied
		// boxes (growth, interior and shrink-rescan paths all fire).
		if rng.Intn(2) == 0 {
			if again := st.ApplySlot(0); math.Float64bits(again) != math.Float64bits(d) {
				t.Fatalf("step %d: re-applied delta %v != measured delta %v", i, again, d)
			}
		}
	}
}

// TestPlaceBatchAccountingMatchesRecompute extends the incremental
// exact-equality contract to the batched commit/requeue path: after
// EVERY batch commit cycle of a real anneal, each maintained
// net cost must equal a from-scratch HPWL recompute. The run must also
// actually exercise the conflict-requeue path.
func TestPlaceBatchAccountingMatchesRecompute(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(41, 30, 16, 60)
	rng := rand.New(rand.NewSource(6))
	st, err := newState(p, a.CLBSites(), a.IOSites(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := 0
	stats := anneal.Run(st, anneal.Config{
		Effort: 0.3, Span: a.Width + a.Height,
		Cells: len(p.Cells), Nets: len(p.Nets),
		AfterBatch: func() {
			batch++
			checkAgainstRecompute(t, st, batch)
		},
	}, rng)
	if stats.Batches == 0 || batch != stats.Batches {
		t.Fatalf("AfterBatch ran %d times for %d batches", batch, stats.Batches)
	}
	if stats.Requeued == 0 {
		t.Fatal("anneal never exercised the conflict-requeue path")
	}
}

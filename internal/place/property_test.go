package place

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// randomProblem builds a problem with multi-terminal nets (2–6 pins) over
// logic and IO cells, the shape that exercises every box-update path:
// growth, interior moves, and recompute-on-shrink.
func randomProblem(seed int64, nBlocks, nIO, nNets int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{}
	for i := 0; i < nBlocks; i++ {
		p.Cells = append(p.Cells, Cell{Name: fmt.Sprintf("b%d", i)})
	}
	for i := 0; i < nIO; i++ {
		p.Cells = append(p.Cells, Cell{Name: fmt.Sprintf("io%d", i), IsIO: true})
	}
	for i := 0; i < nNets; i++ {
		n := 2 + rng.Intn(5)
		seen := map[int]bool{}
		var cells []int
		for len(cells) < n {
			c := rng.Intn(len(p.Cells))
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		w := 1.0
		if rng.Intn(4) == 0 {
			w = 1 + rng.Float64()
		}
		p.Nets = append(p.Nets, Net{Cells: cells, Weight: w})
	}
	return p
}

// checkAgainstRecompute asserts that every incrementally maintained net
// cost (and the summed total) equals a from-scratch HPWL recompute.
func checkAgainstRecompute(t *testing.T, st *state, step int) {
	t.Helper()
	total := 0.0
	for ni, n := range st.p.Nets {
		w := n.Weight
		if w == 0 {
			w = 1
		}
		want := HPWL(n.Cells, w, st.loc)
		if st.netCost[ni] != want {
			t.Fatalf("step %d: net %d incremental cost %v != recomputed %v", step, ni, st.netCost[ni], want)
		}
		total += st.netCost[ni]
	}
	if got := st.totalCost(); got != total {
		t.Fatalf("step %d: totalCost %v != summed %v", step, got, total)
	}
}

// TestIncrementalCostMatchesRecompute drives the placer's move engine
// through a random accepted/rejected sequence and verifies the
// incremental bounding-box costs against from-scratch recomputation.
func TestIncrementalCostMatchesRecompute(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(41, 30, 16, 60)
	rng := rand.New(rand.NewSource(42))
	st, err := newState(p, a.CLBSites(), a.IOSites(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, st, -1)
	st.SetupBatch(1)
	for i := 0; i < 4000; i++ {
		rlim := 1 + rng.Float64()*float64(a.Width+a.Height)
		if !st.Propose(rng, rlim, 0) {
			continue
		}
		st.ApplySlot(0)
		if rng.Intn(2) == 0 {
			st.Undo()
		}
		if i%97 == 0 {
			checkAgainstRecompute(t, st, i)
		}
	}
	checkAgainstRecompute(t, st, 4000)
}

// TestTryMoveDeltaConsistent verifies that the delta ApplySlot returns
// for a proposed move equals the actual change of the from-scratch
// total, and that Undo restores it exactly.
func TestTryMoveDeltaConsistent(t *testing.T) {
	a := arch.New(6, 6, 4)
	p := randomProblem(7, 20, 12, 40)
	rng := rand.New(rand.NewSource(8))
	st, err := newState(p, a.CLBSites(), a.IOSites(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.SetupBatch(1)
	for i := 0; i < 500; i++ {
		before := st.totalCost()
		if !st.Propose(rng, 5, 0) {
			continue
		}
		d := st.ApplySlot(0)
		after := st.totalCost()
		if diff := after - before - d; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("step %d: delta %v but total moved by %v", i, d, after-before)
		}
		st.Undo()
		if got := st.totalCost(); got != before {
			t.Fatalf("step %d: undo left total %v, want %v", i, got, before)
		}
	}
}

// TestPlacementDeterministicWithCost is the same-seed contract at the
// Placement level: identical sites and identical cost, fresh and refined.
func TestPlacementDeterministicWithCost(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(11, 24, 14, 50)
	run := func(opt Options) *Placement {
		pl, err := Place(p, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	p1, p2 := run(Options{Seed: 3, Effort: 0.3}), run(Options{Seed: 3, Effort: 0.3})
	if p1.Cost != p2.Cost {
		t.Fatalf("same seed, costs %v vs %v", p1.Cost, p2.Cost)
	}
	for c := range p1.SiteOf {
		if p1.SiteOf[c] != p2.SiteOf[c] {
			t.Fatalf("same seed, cell %d placed differently", c)
		}
	}
	r1 := run(Options{Seed: 9, Effort: 0.2, Init: p1.SiteOf})
	r2 := run(Options{Seed: 9, Effort: 0.2, Init: p2.SiteOf})
	if r1.Cost != r2.Cost {
		t.Fatalf("same refine seed, costs %v vs %v", r1.Cost, r2.Cost)
	}
	for c := range r1.SiteOf {
		if r1.SiteOf[c] != r2.SiteOf[c] {
			t.Fatalf("same refine seed, cell %d placed differently", c)
		}
	}
}

package merge

import (
	"math/rand"
	"testing"

	"repro/internal/lutnet"
)

// checkPosCosts verifies the maintained posCost array against costAt,
// which always rescans the position's drivers and sinks from scratch —
// the maintained side under test is the affected-set bookkeeping that
// decides which positions a move must re-evaluate.
func checkPosCosts(t *testing.T, st *state, step int) {
	t.Helper()
	for p := int32(0); int(p) < st.nPos; p++ {
		if got, want := st.posCost[p], st.costAt(p); got != want {
			t.Fatalf("step %d: pos %d maintained cost %v != recomputed %v", step, p, got, want)
		}
	}
}

// TestMergeIncrementalCostMatchesRecompute drives the combined-placement
// mover through a random accepted/rejected sequence and verifies the
// incrementally maintained per-position costs against from-scratch
// recomputation, under both objectives.
func TestMergeIncrementalCostMatchesRecompute(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 50, 30),
		randomCircuit(t, 51, 30),
		randomCircuit(t, 52, 30),
	}
	a := archFor(modes)
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		rng := rand.New(rand.NewSource(13))
		st, err := newState(modes, a, obj, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPosCosts(t, st, -1)
		st.SetupBatch(1)
		for i := 0; i < 3000; i++ {
			rlim := 1 + rng.Float64()*float64(a.Width+a.Height)
			if !st.Propose(rng, rlim, 0) {
				continue
			}
			st.ApplySlot(0)
			if rng.Intn(2) == 0 {
				st.Undo()
			}
			if i%83 == 0 {
				checkPosCosts(t, st, i)
			}
		}
		checkPosCosts(t, st, 3000)

		// The delta ApplySlot reports must equal the actual total change,
		// and Undo must restore the total exactly.
		for i := 0; i < 300; i++ {
			before := st.totalCost()
			if !st.Propose(rng, 4, 0) {
				continue
			}
			d := st.ApplySlot(0)
			after := st.totalCost()
			if diff := after - before - d; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%v step %d: delta %v but total moved by %v", obj, i, d, after-before)
			}
			st.Undo()
			if got := st.totalCost(); got != before {
				t.Fatalf("%v step %d: undo left total %v, want %v", obj, i, got, before)
			}
		}
	}
}

// TestCombinedPlaceResultDeterministic is the same-seed contract at the
// Result level: identical cost, connection counts, and group sites.
func TestCombinedPlaceResultDeterministic(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		r1, err := CombinedPlace("det", modes, a, Options{Seed: 21, Effort: 0.2, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := CombinedPlace("det", modes, a, Options{Seed: 21, Effort: 0.2, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cost != r2.Cost || r1.TunableConns != r2.TunableConns || r1.TotalModeConns != r2.TotalModeConns {
			t.Fatalf("%v: non-deterministic result: cost %v/%v conns %d/%d", obj, r1.Cost, r2.Cost, r1.TunableConns, r2.TunableConns)
		}
		for g := range r1.LUTSite {
			if r1.LUTSite[g] != r2.LUTSite[g] {
				t.Fatalf("%v: LUT group %d site differs", obj, g)
			}
		}
		for g := range r1.PadSite {
			if r1.PadSite[g] != r2.PadSite[g] {
				t.Fatalf("%v: pad group %d site differs", obj, g)
			}
		}
	}
}

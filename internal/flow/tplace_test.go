package flow

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/merge"
)

// TestTPlaceRefineWorkerDeterminism is the flow-level half of the
// worker-determinism contract: the TPlace refinement pass (annealing from
// the combined placement's extracted sites rather than a random start)
// must return byte-identical sites and cost whether it runs alone or
// beside other refinements, the way job-level workers (experiments.Runner
// -j, mmserved -j) run independent compiles.
func TestTPlaceRefineWorkerDeterminism(t *testing.T) {
	cfg := testConfig()
	mapped, err := MapModes(buildPair(t, 11, 12, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	region, err := SizeRegion(mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One combined placement feeds every refinement run, so any
	// divergence below is TPlace's alone.
	mres, err := merge.CombinedPlace("det", mapped, region.Arch, merge.Options{
		Seed: cfg.Seed, Effort: cfg.PlaceEffort, Objective: merge.WireLength,
	})
	if err != nil {
		t.Fatal(err)
	}

	type refined struct {
		lut, pad []arch.Site
		cost     float64
		err      error
	}
	run := func() refined {
		lut, pad, cost, err := TPlace(mres.Tunable, region.Arch, cfg, mres.LUTSite, mres.PadSite)
		return refined{lut, pad, cost, err}
	}
	base := run()
	if base.err != nil {
		t.Fatal(base.err)
	}
	got := make([]refined, 3)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], base) {
			t.Errorf("TPlace refine diverges beside other jobs (job %d, cost %v vs %v, err %v)",
				i, got[i].cost, base.cost, got[i].err)
		}
	}
}

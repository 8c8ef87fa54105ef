package flow

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/place"
	"repro/internal/tunable"
)

// TPlace places a Tunable circuit with the conventional annealer: Tunable
// LUTs and pads become cells, Tunable nets (a source entity and the union
// of its sink entities over all modes) become bounding-box nets — the same
// wire-length estimate the combined placement optimises. When initLUT and
// initPad carry the combined placement's extracted sites, TPlace refines
// that placement (the topology is fixed after merging, so this is where
// the paper's observation that "wire length is best optimised during the
// combined placement, not after, with TPlace" becomes visible). It returns
// the sites of LUT groups and pad groups plus the final cost.
func TPlace(tc *tunable.Circuit, a arch.Arch, cfg Config, initLUT, initPad []arch.Site) ([]arch.Site, []arch.Site, float64, error) {
	cfg = cfg.filled()
	prob := &place.Problem{}
	// Cells: TLUTs first, pads after.
	for i := range tc.TLUTs {
		prob.Cells = append(prob.Cells, place.Cell{Name: tc.TLUTs[i].Name})
	}
	for i := range tc.TPads {
		prob.Cells = append(prob.Cells, place.Cell{Name: tc.TPads[i].Name, IsIO: true})
	}
	cellOf := func(e tunable.Entity) int {
		if e.IsPad {
			return len(tc.TLUTs) + e.Idx
		}
		return e.Idx
	}
	// Tunable nets grouped by source entity.
	type srcKey struct {
		isPad bool
		idx   int
	}
	sinkSet := map[srcKey]map[int]bool{}
	var order []srcKey
	for _, cn := range tc.Conns {
		k := srcKey{cn.Src.IsPad, cn.Src.Idx}
		if _, ok := sinkSet[k]; !ok {
			sinkSet[k] = map[int]bool{}
			order = append(order, k)
		}
		sinkSet[k][cellOf(cn.Dst)] = true
	}
	for _, k := range order {
		cells := []int{cellOf(tunable.Entity{IsPad: k.isPad, Idx: k.idx})}
		for s := range sinkSet[k] {
			if s != cells[0] {
				cells = append(cells, s)
			}
		}
		if len(cells) > 1 {
			prob.Nets = append(prob.Nets, place.Net{Cells: cells, Weight: 1})
		}
	}

	popt := place.Options{
		Seed:               cfg.Seed + 7777,
		Effort:             cfg.PlaceEffort,
		RefineTempFraction: cfg.RefineTempFraction,
		Starts:             cfg.PlaceStarts,
		Obs:                cfg.Obs,
		Ctx:                cfg.Ctx,
	}
	if initLUT != nil && initPad != nil {
		init := make([]arch.Site, 0, len(prob.Cells))
		init = append(init, initLUT...)
		init = append(init, initPad...)
		popt.Init = init
	}
	pl, err := place.Place(prob, a, popt)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("flow: TPlace: %w", err)
	}
	lutSites := make([]arch.Site, len(tc.TLUTs))
	padSites := make([]arch.Site, len(tc.TPads))
	for i := range tc.TLUTs {
		lutSites[i] = pl.SiteOf[i]
	}
	for i := range tc.TPads {
		padSites[i] = pl.SiteOf[len(tc.TLUTs)+i]
	}
	return lutSites, padSites, pl.Cost, nil
}

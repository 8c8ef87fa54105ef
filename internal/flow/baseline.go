package flow

import (
	"encoding/json"
	"fmt"

	"repro/internal/arch"
	"repro/internal/codec"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/route"
)

// The eco-baseline artifact captures everything a later delta compile
// needs to warm-start from a finished comparison: the sized region, each
// mode's circuit (to diff the edited version against), its placement and
// its routing trees, plus the per-mode combined-placement sites of both
// DCS objectives. It is written next to every persistent compile result
// (see service.CompileNetlistsEnv) under a key derived from the request
// identity, so "recompile this edit against yesterday's run" is one key
// away. The payload is the Baseline's JSON, the encoding of every stored
// result.
const (
	// KindBaseline is the artifact kind tag of a baseline's store key.
	KindBaseline = "eco-baseline"
	// BaselineVersion covers the encoding and the delta-path semantics
	// that consume it (diff matching, transfer rules, warm routing).
	//
	// v2: the payload is JSON instead of a hand-written binary encoding,
	// and each mode stores its circuit itself, not its hash and encoding.
	BaselineVersion = 2
)

// BaselineNet is one net's baseline routing, keyed by the net's canonical
// name ("pi<i>"/"blk<i>" with baseline indices). Only the edges are kept:
// warm seeding reconstructs paths by walking them.
type BaselineNet struct {
	Name  string
	Edges []route.Edge
}

// BaselineMode is one mode's separate (MDR) implementation.
type BaselineMode struct {
	// Circuit is the mapped circuit the mode implemented; a delta compile
	// whose mode hashes identically reuses Sites verbatim without diffing.
	Circuit *lutnet.Circuit
	// Sites is the placement in the place.FromCircuit cell encoding
	// (blocks, then PIs, then POs); Cost its annealing cost.
	Sites []arch.Site
	Cost  float64
	Nets  []BaselineNet
}

// BaselineMerge is the combined placement of one DCS objective, as
// per-mode site vectors in the same cell encoding as BaselineMode.Sites.
type BaselineMerge struct {
	ModeSites [][]arch.Site
}

// Baseline is the decoded eco-baseline artifact.
type Baseline struct {
	// Side, W and MinW reproduce the sized region, skipping SizeRegion
	// and RunComparison's widening retries entirely.
	Side, W, MinW int
	Modes         []BaselineMode
	// Merges is indexed by merge.Objective (WireLength, EdgeMatch).
	Merges [2]BaselineMerge
}

// BaselineArtifactKey derives the store key under which a compile's
// baseline artifact lives from the compile request's content identity.
func BaselineArtifactKey(requestKey codec.Hash) codec.Hash {
	w := codec.NewWriter()
	w.Header(KindBaseline, BaselineVersion)
	w.String(requestKey.Hex())
	return w.Sum()
}

// BuildBaseline captures a finished comparison as a baseline artifact.
// modes must be the mapped circuits the comparison implemented, in order.
func BuildBaseline(cmp *Comparison, modes []*lutnet.Circuit) *Baseline {
	b := &Baseline{
		Side: cmp.Region.Arch.Width,
		W:    cmp.Region.Arch.W,
		MinW: cmp.Region.MinW,
	}
	for m, c := range modes {
		pm := &cmp.MDR.PerMode[m]
		bm := BaselineMode{
			Circuit: c,
			Sites:   pm.Placement.SiteOf,
			Cost:    pm.Placement.Cost,
		}
		for i := range pm.Nets {
			bm.Nets = append(bm.Nets, BaselineNet{
				Name:  pm.Nets[i].Name,
				Edges: pm.Routing.Trees[i].Edges,
			})
		}
		b.Modes = append(b.Modes, bm)
	}
	b.Merges[merge.WireLength] = BaselineMerge{ModeSites: cmp.WireLen.Merge.ModeSites()}
	b.Merges[merge.EdgeMatch] = BaselineMerge{ModeSites: cmp.EdgeMatch.Merge.ModeSites()}
	return b
}

// EncodeBaseline renders the stored form of a baseline artifact. It fails
// only on a value JSON cannot hold (a NaN or infinite cost), and then the
// baseline is not stored.
func EncodeBaseline(b *Baseline) ([]byte, error) { return json.Marshal(b) }

// DecodeBaseline reads a stored baseline and rejects one no cold compile
// under cfg could have produced: a missing or invalid circuit, or a
// region SizeRegion and the retry ladder would not choose for the stored
// circuits. The region is checked before any graph is built on it, so a
// corrupt entry cannot provoke a huge or malformed graph. Whether the
// sites and trees fit the circuits and the graph is left to the delta
// path, which degrades to a cold compile on any mismatch. A baseline a
// delta compile stored for an edit that moved its region's side is
// rejected too, and its next delta compiles cold.
func DecodeBaseline(data []byte, cfg Config) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flow: baseline: %w", err)
	}
	if len(b.Modes) == 0 {
		return nil, fmt.Errorf("flow: baseline has no modes")
	}
	circuits := make([]*lutnet.Circuit, len(b.Modes))
	for m := range b.Modes {
		c := b.Modes[m].Circuit
		if c == nil {
			return nil, fmt.Errorf("flow: baseline mode %d has no circuit", m)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("flow: baseline mode %d: %w", m, err)
		}
		circuits[m] = c
	}
	cfg = cfg.filled()
	if b.MinW < minSearchW || b.MinW > maxSearchW {
		return nil, fmt.Errorf("flow: baseline minimum channel width %d outside [%d, %d]", b.MinW, minSearchW, maxSearchW)
	}
	if w0 := relaxedW(b.MinW, cfg.RelaxW); b.W < w0 || b.W > w0+2*ladderWidenings {
		return nil, fmt.Errorf("flow: baseline channel width %d outside [%d, %d]", b.W, w0, w0+2*ladderWidenings)
	}
	if side := regionSide(circuits, cfg.RelaxArea); b.Side != side {
		return nil, fmt.Errorf("flow: baseline region side %d, its circuits size to %d", b.Side, side)
	}
	return &b, nil
}

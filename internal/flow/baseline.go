package flow

import (
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
// away.
const (
	// KindBaseline is the artifact kind tag of an encoded Baseline.
	KindBaseline = "eco-baseline"
	// BaselineVersion covers the encoding and the delta-path semantics
	// that consume it (diff matching, transfer rules, warm routing).
	BaselineVersion = 1
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
	// CircuitHash identifies the mapped circuit; a delta compile whose
	// mode hashes identically reuses Sites verbatim without diffing.
	CircuitHash codec.Hash
	// Circuit is the codec.EncodeCircuit form, decoded only when the new
	// version differs and a structural diff is needed.
	Circuit []byte
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
		enc := codec.EncodeCircuit(c)
		pm := &cmp.MDR.PerMode[m]
		bm := BaselineMode{
			CircuitHash: codec.Sum(enc),
			Circuit:     enc,
			Sites:       pm.Placement.SiteOf,
			Cost:        pm.Placement.Cost,
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

func encodeSites(w *codec.Writer, sites []arch.Site) {
	w.Uvarint(uint64(len(sites)))
	for _, s := range sites {
		w.Int(s.X)
		w.Int(s.Y)
		w.Int(s.Sub)
		w.Bool(s.IsIO)
	}
}

func decodeSites(r *codec.Reader) []arch.Site {
	n := r.Len(4)
	sites := make([]arch.Site, 0, n)
	for i := 0; i < n; i++ {
		s := arch.Site{X: r.Int(), Y: r.Int(), Sub: r.Int()}
		s.IsIO = r.Bool()
		sites = append(sites, s)
	}
	return sites
}

// EncodeBaseline renders the canonical encoding of a baseline artifact.
func EncodeBaseline(b *Baseline) []byte {
	w := codec.NewWriter()
	w.Header(KindBaseline, BaselineVersion)
	w.Int(b.Side)
	w.Int(b.W)
	w.Int(b.MinW)
	w.Uvarint(uint64(len(b.Modes)))
	for i := range b.Modes {
		bm := &b.Modes[i]
		w.String(bm.CircuitHash.Hex())
		w.String(string(bm.Circuit))
		encodeSites(w, bm.Sites)
		w.Float64(bm.Cost)
		w.Uvarint(uint64(len(bm.Nets)))
		for j := range bm.Nets {
			bn := &bm.Nets[j]
			w.String(bn.Name)
			w.Uvarint(uint64(len(bn.Edges)))
			for _, e := range bn.Edges {
				w.Int(int(e.From))
				w.Int(int(e.To))
			}
		}
	}
	for obj := range b.Merges {
		w.Uvarint(uint64(len(b.Merges[obj].ModeSites)))
		for _, ms := range b.Merges[obj].ModeSites {
			encodeSites(w, ms)
		}
	}
	return w.Bytes()
}

// DecodeBaseline is the inverse of EncodeBaseline. Structural validation
// (do the sites fit the circuits? do the trees fit the graph?) is left to
// the delta path, which degrades to a cold compile on any mismatch.
func DecodeBaseline(data []byte) (*Baseline, error) {
	r := codec.NewReader(data)
	r.Header(KindBaseline, BaselineVersion)
	b := &Baseline{Side: r.Int(), W: r.Int(), MinW: r.Int()}
	for i, n := 0, r.Len(4); i < n; i++ {
		var bm BaselineMode
		h, err := codec.ParseHash(r.String())
		if err != nil {
			return nil, fmt.Errorf("flow: baseline mode hash: %w", err)
		}
		bm.CircuitHash = h
		bm.Circuit = []byte(r.String())
		bm.Sites = decodeSites(r)
		bm.Cost = r.Float64()
		for j, m := 0, r.Len(2); j < m; j++ {
			bn := BaselineNet{Name: r.String()}
			for k, e := 0, r.Len(2); k < e; k++ {
				bn.Edges = append(bn.Edges, route.Edge{From: int32(r.Int()), To: int32(r.Int())})
			}
			bm.Nets = append(bm.Nets, bn)
		}
		b.Modes = append(b.Modes, bm)
	}
	for obj := range b.Merges {
		// A mode's site vector can be empty: one byte, its length.
		for i, n := 0, r.Len(1); i < n; i++ {
			b.Merges[obj].ModeSites = append(b.Merges[obj].ModeSites, decodeSites(r))
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

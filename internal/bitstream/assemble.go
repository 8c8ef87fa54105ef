package bitstream

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/place"
	"repro/internal/route"
)

// Assemble produces the full configuration of a placed and routed
// single-mode circuit (the artefact MDR writes for one mode).
//
// LUT-input permutation: the router treats the K input pins of a block as
// equivalent and lands each incoming net on an arbitrary IPIN; the truth
// table written into the bitstream must therefore be re-expressed over the
// physical pins.
func Assemble(g *arch.Graph, c *lutnet.Circuit, cc place.CircuitCells,
	pl *place.Placement, nets []route.Net, rr *route.Result) (*Config, error) {

	cfg := NewConfig(g.Arch, g)

	// Routing bits.
	for bit := range route.UsedBits(g, rr.Trees) {
		cfg.Routing[bit] = true
	}

	// Which IPIN did each (driver source, block) connection land on?
	ipinOf, err := ipinAssignments(g, nets, rr)
	if err != nil {
		return nil, err
	}
	idx := g.Arch.NewIOIndexer()
	srcNode := func(cell int) (int32, error) {
		s := pl.SiteOf[cell]
		if s.IsIO {
			i, ok := idx[s]
			if !ok {
				return 0, fmt.Errorf("bitstream: unknown pad site %v", s)
			}
			return g.PadSource(i), nil
		}
		return g.CLBSource(s.X, s.Y), nil
	}

	for bi := range c.Blocks {
		blk := &c.Blocks[bi]
		site := pl.SiteOf[cc.BlockCell(bi)]
		if site.IsIO {
			return nil, fmt.Errorf("bitstream: block %d on pad site", bi)
		}
		sink := g.CLBSink(site.X, site.Y)

		// Logical input i -> physical pin. Nets that feed several logical
		// pins of one block are impossible after mapping (cut leaves are
		// distinct), so the assignment is a bijection on the used pins.
		varMap := make([]int, len(blk.Inputs))
		seen := map[int]bool{}
		for i, src := range blk.Inputs {
			drv, err := srcNode(cc.SourceCell(src))
			if err != nil {
				return nil, err
			}
			key := pinKey{driver: drv, sink: sink}
			pins := ipinOf[key]
			if len(pins) == 0 {
				return nil, fmt.Errorf("bitstream: block %d input %d (%v): no ipin found", bi, i, src)
			}
			// Take the first unused pin assigned to this driver at this
			// block.
			assigned := -1
			for _, p := range pins {
				if !seen[p] {
					assigned = p
					break
				}
			}
			if assigned < 0 {
				return nil, fmt.Errorf("bitstream: block %d input %d: pins exhausted", bi, i)
			}
			seen[assigned] = true
			varMap[i] = assigned
		}
		phys := blk.TT.Expand(g.Arch.K, varMap)
		if err := cfg.SetLUT(site.X, site.Y, phys, blk.HasFF); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

type pinKey struct {
	driver int32 // SOURCE node of the driving net
	sink   int32 // SINK node of the consuming block
}

// ipinAssignments maps (driver cell, block sink) to the physical pins the
// router chose, by walking each routing tree's wire→IPIN edges.
func ipinAssignments(g *arch.Graph, nets []route.Net, rr *route.Result) (map[pinKey][]int, error) {
	// Nets are parallel to rr.Trees; each net is keyed by its (unique)
	// SOURCE node.
	out := map[pinKey][]int{}
	for ni, tree := range rr.Trees {
		for _, e := range tree.Edges {
			toN := g.Nodes[e.To]
			if toN.Type != arch.NodeIPin {
				continue
			}
			// CLB ipin? (pads have their own IPIN nodes; skip them, pad
			// sinks need no permutation.)
			onRing := toN.X == 0 || toN.Y == 0 || int(toN.X) == g.Arch.Width+1 || int(toN.Y) == g.Arch.Height+1
			if onRing {
				continue
			}
			sink := g.CLBSink(int(toN.X), int(toN.Y))
			key := pinKey{driver: nets[ni].Source, sink: sink}
			out[key] = append(out[key], int(toN.Track))
		}
	}
	return out, nil
}

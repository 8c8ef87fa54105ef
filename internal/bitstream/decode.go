package bitstream

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/lutnet"
)

// PadNames names the I/O pads of a configuration (by IOSites index) so the
// decoded circuit carries usable port names — the equivalent of a pin
// constraint file.
type PadNames struct {
	In  map[int]string // pad index -> PI name
	Out map[int]string // pad index -> PO name
}

// Decode reconstructs the LUT circuit a configuration implements: it
// traces every switched-on routing switch from each driving output pin,
// recovers block connectivity and input-pin usage, and re-expresses each
// LUT truth table over its logical inputs. Flip-flop initial state is not
// part of a configuration (it is reset circuitry on real devices), so all
// decoded FFs start at false.
func Decode(g *arch.Graph, cfg *Config, names PadNames) (*lutnet.Circuit, error) {
	a := g.Arch
	if len(cfg.Routing) != g.NumRoutingBits || len(cfg.LUT) != a.TotalLUTBits() {
		return nil, fmt.Errorf("bitstream: configuration does not match region")
	}

	// On-edge traversal: hardwired edges are always usable; programmable
	// edges only when their bit is set.
	edgeOn := func(from int32, i int) bool {
		bit := g.EdgeBits(from)[i]
		return bit < 0 || cfg.Routing[bit]
	}

	// Discover drivers: every OPIN with at least one switched-on edge.
	type driver struct {
		opin int32
		// reached CLB ipins and pad ipins
		clbPins []int32
		padPins []int32
	}
	var drivers []driver
	claimedBy := map[int32]int{} // wire/ipin node -> driver index

	for n := int32(0); n < int32(g.NumNodes()); n++ {
		if g.Nodes[n].Type != arch.NodeOPin {
			continue
		}
		active := false
		for i := range g.Edges(n) {
			if edgeOn(n, i) {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		di := len(drivers)
		d := driver{opin: n}
		// BFS over on-switches.
		stack := []int32{n}
		seen := map[int32]bool{n: true}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tos := g.Edges(cur)
			for i, to := range tos {
				if !edgeOn(cur, i) || seen[to] {
					continue
				}
				toN := g.Nodes[to]
				switch toN.Type {
				case arch.NodeChanX, arch.NodeChanY:
					if prev, clash := claimedBy[to]; clash && prev != di {
						return nil, fmt.Errorf("bitstream: wire %v driven by two nets", toN)
					}
					claimedBy[to] = di
					seen[to] = true
					stack = append(stack, to)
				case arch.NodeIPin:
					if prev, clash := claimedBy[to]; clash && prev != di {
						return nil, fmt.Errorf("bitstream: input pin %v driven by two nets", toN)
					}
					claimedBy[to] = di
					seen[to] = true
					if a.OnRing(int(toN.X), int(toN.Y)) {
						d.padPins = append(d.padPins, to)
					} else {
						d.clbPins = append(d.clbPins, to)
					}
				case arch.NodeSink, arch.NodeSource, arch.NodeOPin:
					// SOURCE→OPIN and IPIN→SINK hardwired hops terminate
					// here; nothing further to traverse.
				}
			}
		}
		drivers = append(drivers, d)
	}

	// Identify logic blocks: every CLB whose OPIN drives something.
	type blockSite struct{ x, y int }
	var blockSites []blockSite
	blockIdxAt := map[blockSite]int{}
	for _, d := range drivers {
		nd := g.Nodes[d.opin]
		if a.OnRing(int(nd.X), int(nd.Y)) {
			continue
		}
		bs := blockSite{int(nd.X), int(nd.Y)}
		if _, ok := blockIdxAt[bs]; !ok {
			blockIdxAt[bs] = -1 // assign after sorting
			blockSites = append(blockSites, bs)
		}
	}
	sort.Slice(blockSites, func(i, j int) bool {
		if blockSites[i].y != blockSites[j].y {
			return blockSites[i].y < blockSites[j].y
		}
		return blockSites[i].x < blockSites[j].x
	})
	for i, bs := range blockSites {
		blockIdxAt[bs] = i
	}

	out := &lutnet.Circuit{Name: "decoded", K: a.K}
	ioIdx := a.NewIOIndexer()
	ioSites := a.IOSites()

	// PI pads: drivers whose OPIN is a pad.
	piIdxOfPad := map[int]int{}
	driverSource := make([]lutnet.Source, len(drivers))
	for di, d := range drivers {
		nd := g.Nodes[d.opin]
		if a.OnRing(int(nd.X), int(nd.Y)) {
			pad := -1
			for i, s := range ioSites {
				if int16(s.X) == nd.X && int16(s.Y) == nd.Y && int16(s.Sub) == nd.Track {
					pad = i
					break
				}
			}
			if pad < 0 {
				return nil, fmt.Errorf("bitstream: pad OPIN %v not found", nd)
			}
			name := names.In[pad]
			if name == "" {
				name = fmt.Sprintf("pad%d", pad)
			}
			piIdxOfPad[pad] = len(out.PINames)
			driverSource[di] = lutnet.Source{Kind: lutnet.SrcPI, Idx: len(out.PINames)}
			out.PINames = append(out.PINames, name)
		} else {
			driverSource[di] = lutnet.Source{Kind: lutnet.SrcBlock, Idx: blockIdxAt[blockSite{int(nd.X), int(nd.Y)}]}
		}
	}

	// Pin drivers per CLB.
	pinDriver := map[blockSite]map[int]int{} // site -> pin -> driver index
	for di, d := range drivers {
		for _, pin := range d.clbPins {
			nd := g.Nodes[pin]
			bs := blockSite{int(nd.X), int(nd.Y)}
			if pinDriver[bs] == nil {
				pinDriver[bs] = map[int]int{}
			}
			pinDriver[bs][int(nd.Track)] = di
		}
	}

	// Build blocks.
	out.Blocks = make([]lutnet.Block, len(blockSites))
	for i, bs := range blockSites {
		phys, hasFF := cfg.GetLUT(bs.x, bs.y)
		small, keep := phys.Shrink()
		blk := lutnet.Block{Name: fmt.Sprintf("clb_%d_%d", bs.x, bs.y), TT: small, HasFF: hasFF}
		for _, pin := range keep {
			di, ok := pinDriver[bs][pin]
			if !ok {
				return nil, fmt.Errorf("bitstream: CLB(%d,%d) truth table depends on undriven pin %d", bs.x, bs.y, pin)
			}
			blk.Inputs = append(blk.Inputs, driverSource[di])
		}
		out.Blocks[i] = blk
	}

	// POs: pad ipins reached by a driver.
	for di, d := range drivers {
		for _, pin := range d.padPins {
			nd := g.Nodes[pin]
			pad, ok := ioIdx[arch.Site{X: int(nd.X), Y: int(nd.Y), Sub: int(nd.Track), IsIO: true}]
			if !ok {
				return nil, fmt.Errorf("bitstream: pad IPIN %v not found", nd)
			}
			name := names.Out[pad]
			if name == "" {
				name = fmt.Sprintf("pad%d", pad)
			}
			out.POs = append(out.POs, lutnet.PO{Name: name, Src: driverSource[di]})
		}
	}
	sort.Slice(out.POs, func(i, j int) bool { return out.POs[i].Name < out.POs[j].Name })

	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("bitstream: decoded circuit invalid: %w", err)
	}
	return out, nil
}

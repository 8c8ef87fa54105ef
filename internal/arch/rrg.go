package arch

import "fmt"

// NodeType enumerates routing-resource graph node classes.
type NodeType uint8

const (
	// NodeSource is the virtual source behind a logic-block or pad output.
	NodeSource NodeType = iota
	// NodeSink is the virtual sink behind a logic-block or pad input.
	NodeSink
	// NodeOPin is a physical output pin.
	NodeOPin
	// NodeIPin is a physical input pin.
	NodeIPin
	// NodeChanX is a horizontal unit-length wire segment.
	NodeChanX
	// NodeChanY is a vertical unit-length wire segment.
	NodeChanY
)

func (t NodeType) String() string {
	switch t {
	case NodeSource:
		return "SOURCE"
	case NodeSink:
		return "SINK"
	case NodeOPin:
		return "OPIN"
	case NodeIPin:
		return "IPIN"
	case NodeChanX:
		return "CHANX"
	case NodeChanY:
		return "CHANY"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Node is one routing resource. For wires, Track is the channel track; for
// pad pins, Track is the pad sub-position.
type Node struct {
	Type  NodeType
	X, Y  int16
	Track int16
}

// IsWire reports whether the node is a routing wire segment.
func (n Node) IsWire() bool { return n.Type == NodeChanX || n.Type == NodeChanY }

// Graph is the routing-resource graph: nodes, a flat adjacency structure,
// and the configuration-bit index of every programmable switch. Wire-wire
// switches are bidirectional pass transistors: both directed edges share
// one bit.
type Graph struct {
	Arch  Arch
	Nodes []Node

	// Xs and Ys mirror the node coordinates as flat SoA arrays (parallel
	// to Nodes). The router's A* lower bound reads millions of coordinate
	// pairs per route; loading two int16 arrays instead of full Node
	// structs keeps that inner loop on dense cache lines. Derived from
	// Nodes — never mutate.
	Xs, Ys []int16

	// SinkFlags marks SINK nodes, parallel to Nodes: the router's neighbor
	// loop prunes non-target sinks on every edge expansion, and the flat
	// byte array keeps that test off the Node structs too. Derived from
	// Nodes — never mutate.
	SinkFlags []bool

	edgeStart []int32 // CSR offsets into edgeTo/edgeBit, len = len(Nodes)+1
	edgeTo    []int32
	edgeBit   []int32 // configuration bit of each directed edge, -1 if hardwired

	NumRoutingBits int

	clbBase int // node index of first CLB resource
	ioBase  int
	chanXBase,
	chanYBase int
}

// fillCoordSoA derives the flat coordinate and sink-flag arrays from
// Nodes.
func (g *Graph) fillCoordSoA() {
	g.Xs = make([]int16, len(g.Nodes))
	g.Ys = make([]int16, len(g.Nodes))
	g.SinkFlags = make([]bool, len(g.Nodes))
	for i := range g.Nodes {
		g.Xs[i] = g.Nodes[i].X
		g.Ys[i] = g.Nodes[i].Y
		g.SinkFlags[i] = g.Nodes[i].Type == NodeSink
	}
}

// Per-CLB node layout: SOURCE, OPIN, SINK, IPIN*K.
func (g *Graph) clbNode(x, y, off int) int32 {
	a := g.Arch
	return int32(g.clbBase + ((y-1)*a.Width+(x-1))*(3+a.K) + off)
}

// CLBSource returns the SOURCE node of the logic block at (x, y).
func (g *Graph) CLBSource(x, y int) int32 { return g.clbNode(x, y, 0) }

// CLBOpin returns the OPIN node of the logic block at (x, y).
func (g *Graph) CLBOpin(x, y int) int32 { return g.clbNode(x, y, 1) }

// CLBSink returns the SINK node of the logic block at (x, y).
func (g *Graph) CLBSink(x, y int) int32 { return g.clbNode(x, y, 2) }

// CLBIpin returns input-pin node p of the logic block at (x, y).
func (g *Graph) CLBIpin(x, y, p int) int32 { return g.clbNode(x, y, 3+p) }

// Per-pad node layout: SOURCE, OPIN, SINK, IPIN.
func (g *Graph) padNode(ioIndex, off int) int32 {
	return int32(g.ioBase + ioIndex*4 + off)
}

// PadSource returns the SOURCE node of pad site i (index into IOSites()).
func (g *Graph) PadSource(i int) int32 { return g.padNode(i, 0) }

// PadOpin returns the OPIN node of pad site i.
func (g *Graph) PadOpin(i int) int32 { return g.padNode(i, 1) }

// PadSink returns the SINK node of pad site i.
func (g *Graph) PadSink(i int) int32 { return g.padNode(i, 2) }

// PadIpin returns the IPIN node of pad site i.
func (g *Graph) PadIpin(i int) int32 { return g.padNode(i, 3) }

// ChanX returns the horizontal wire node at (x in 1..Width, y in 0..Height,
// track t).
func (g *Graph) ChanX(x, y, t int) int32 {
	a := g.Arch
	return int32(g.chanXBase + ((y*a.Width+(x-1))*a.W + t))
}

// ChanY returns the vertical wire node at (x in 0..Width, y in 1..Height,
// track t).
func (g *Graph) ChanY(x, y, t int) int32 {
	a := g.Arch
	return int32(g.chanYBase + ((x*a.Height+(y-1))*a.W + t))
}

// Edges returns the adjacency list of node n.
func (g *Graph) Edges(n int32) []int32 {
	return g.edgeTo[g.edgeStart[n]:g.edgeStart[n+1]]
}

// EdgeBits returns the per-edge configuration-bit ids parallel to Edges(n);
// -1 marks hardwired (non-programmable) edges.
func (g *Graph) EdgeBits(n int32) []int32 {
	return g.edgeBit[g.edgeStart[n]:g.edgeStart[n+1]]
}

// EdgeBit returns the configuration bit that programs the edge from→to,
// or -1 when that edge is hardwired or absent.
func (g *Graph) EdgeBit(from, to int32) int32 {
	bits := g.EdgeBits(from)
	for i, t := range g.Edges(from) {
		if t == to {
			return bits[i]
		}
	}
	return -1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// IOIndexer maps pad sites to their IOSites() index.
type IOIndexer map[Site]int

// NewIOIndexer builds the site→index map for the architecture's pads.
func (a Arch) NewIOIndexer() IOIndexer {
	m := IOIndexer{}
	for i, s := range a.IOSites() {
		m[s] = i
	}
	return m
}

// setBases computes the node-index bases of each resource class. They are
// a pure function of the architecture, which is what lets a decoded graph
// recover them without serialising.
func (g *Graph) setBases() {
	a := g.Arch
	nCLB := a.NumCLBs() * (3 + a.K)
	nIO := a.NumIOSites() * 4
	nChanX := a.Width * (a.Height + 1) * a.W
	g.clbBase = 0
	g.ioBase = nCLB
	g.chanXBase = nCLB + nIO
	g.chanYBase = nCLB + nIO + nChanX
}

// numExpectedNodes returns the node count implied by the architecture.
func (a Arch) numExpectedNodes() int {
	return a.NumCLBs()*(3+a.K) + a.NumIOSites()*4 +
		a.Width*(a.Height+1)*a.W + (a.Width+1)*a.Height*a.W
}

// BuildGraph constructs the routing-resource graph of the architecture.
func BuildGraph(a Arch) *Graph {
	g := &Graph{Arch: a}

	// Node allocation.
	g.setBases()
	g.Nodes = make([]Node, a.numExpectedNodes())

	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			g.Nodes[g.CLBSource(x, y)] = Node{Type: NodeSource, X: int16(x), Y: int16(y)}
			g.Nodes[g.CLBOpin(x, y)] = Node{Type: NodeOPin, X: int16(x), Y: int16(y)}
			g.Nodes[g.CLBSink(x, y)] = Node{Type: NodeSink, X: int16(x), Y: int16(y)}
			for p := 0; p < a.K; p++ {
				g.Nodes[g.CLBIpin(x, y, p)] = Node{Type: NodeIPin, X: int16(x), Y: int16(y), Track: int16(p)}
			}
		}
	}
	ioSites := a.IOSites()
	for i, s := range ioSites {
		g.Nodes[g.PadSource(i)] = Node{Type: NodeSource, X: int16(s.X), Y: int16(s.Y), Track: int16(s.Sub)}
		g.Nodes[g.PadOpin(i)] = Node{Type: NodeOPin, X: int16(s.X), Y: int16(s.Y), Track: int16(s.Sub)}
		g.Nodes[g.PadSink(i)] = Node{Type: NodeSink, X: int16(s.X), Y: int16(s.Y), Track: int16(s.Sub)}
		g.Nodes[g.PadIpin(i)] = Node{Type: NodeIPin, X: int16(s.X), Y: int16(s.Y), Track: int16(s.Sub)}
	}
	for y := 0; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			for t := 0; t < a.W; t++ {
				g.Nodes[g.ChanX(x, y, t)] = Node{Type: NodeChanX, X: int16(x), Y: int16(y), Track: int16(t)}
			}
		}
	}
	for x := 0; x <= a.Width; x++ {
		for y := 1; y <= a.Height; y++ {
			for t := 0; t < a.W; t++ {
				g.Nodes[g.ChanY(x, y, t)] = Node{Type: NodeChanY, X: int16(x), Y: int16(y), Track: int16(t)}
			}
		}
	}

	// Edge accumulation with shared bits for bidirectional switches.
	type edge struct {
		from, to int32
		bit      int32
	}
	var edges []edge
	nextBit := int32(0)
	addHard := func(from, to int32) {
		edges = append(edges, edge{from, to, -1})
	}
	addSwitch := func(from, to int32) {
		edges = append(edges, edge{from, to, nextBit})
		nextBit++
	}
	addBidi := func(aN, bN int32) {
		bit := nextBit
		nextBit++
		edges = append(edges, edge{aN, bN, bit}, edge{bN, aN, bit})
	}

	// CLB internals: SOURCE→OPIN, IPIN→SINK (hardwired).
	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			addHard(g.CLBSource(x, y), g.CLBOpin(x, y))
			for p := 0; p < a.K; p++ {
				addHard(g.CLBIpin(x, y, p), g.CLBSink(x, y))
			}
		}
	}
	for i := range ioSites {
		addHard(g.PadSource(i), g.PadOpin(i))
		addHard(g.PadIpin(i), g.PadSink(i))
	}

	// Adjacent channels of a logic block, per side: 0=bottom chanx(x,y-1),
	// 1=right chany(x,y), 2=top chanx(x,y), 3=left chany(x-1,y).
	sideWire := func(x, y, side, t int) int32 {
		switch side {
		case 0:
			return g.ChanX(x, y-1, t)
		case 1:
			return g.ChanY(x, y, t)
		case 2:
			return g.ChanX(x, y, t)
		default:
			return g.ChanY(x-1, y, t)
		}
	}

	// Connection blocks: every CLB input pin p listens on side p%4 tapping
	// FcIn consecutive tracks (offset by pin for diversity); output pins
	// drive FcOut consecutive tracks on two sides (bottom and right).
	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			for p := 0; p < a.K; p++ {
				side := p % 4
				for i := 0; i < a.FcIn; i++ {
					t := (p + i) % a.W
					addSwitch(sideWire(x, y, side, t), g.CLBIpin(x, y, p))
				}
			}
			for _, side := range []int{0, 1} {
				for i := 0; i < a.FcOut; i++ {
					t := (side + i) % a.W
					addSwitch(g.CLBOpin(x, y), sideWire(x, y, side, t))
				}
			}
		}
	}

	// Pad connection blocks: a pad at the perimeter talks to its single
	// adjacent channel.
	padChan := func(s Site, t int) int32 {
		switch {
		case s.Y == 0: // bottom edge: channel chanx(x, 0)
			return g.ChanX(s.X, 0, t)
		case s.Y == a.Height+1: // top edge
			return g.ChanX(s.X, a.Height, t)
		case s.X == 0: // left edge
			return g.ChanY(0, s.Y, t)
		default: // right edge
			return g.ChanY(a.Width, s.Y, t)
		}
	}
	for i, s := range ioSites {
		for k := 0; k < a.FcOut; k++ {
			t := (s.Sub + k) % a.W
			addSwitch(g.PadOpin(i), padChan(s, t))
		}
		for k := 0; k < a.FcIn; k++ {
			t := (s.Sub + 1 + k) % a.W
			addSwitch(padChan(s, t), g.PadIpin(i))
		}
	}

	// Switch blocks at every corner (X,Y), X in 0..Width, Y in 0..Height.
	// Straight-through connections preserve the track (disjoint pattern);
	// turn connections between a horizontal and a vertical wire mix tracks
	// (t↔t and t↔t+1), so nets can migrate between tracks at corners —
	// without mixing, track-preserving switches partition the fabric into W
	// disconnected routing planes.
	for Y := 0; Y <= a.Height; Y++ {
		for X := 0; X <= a.Width; X++ {
			for t := 0; t < a.W; t++ {
				var horiz, vert []int32
				if X >= 1 {
					horiz = append(horiz, g.ChanX(X, Y, t)) // west
				}
				if X+1 <= a.Width {
					horiz = append(horiz, g.ChanX(X+1, Y, t)) // east
				}
				if Y >= 1 {
					vert = append(vert, g.ChanY(X, Y, t)) // south
				}
				if Y+1 <= a.Height {
					vert = append(vert, g.ChanY(X, Y+1, t)) // north
				}
				// Straight-through, same track.
				if len(horiz) == 2 {
					addBidi(horiz[0], horiz[1])
				}
				if len(vert) == 2 {
					addBidi(vert[0], vert[1])
				}
				// Turns: same track and +1 mixing.
				tUp := (t + 1) % a.W
				for _, h := range horiz {
					for _, v := range vert {
						addBidi(h, v)
						if tUp != t {
							vUp := g.ChanY(int(g.Nodes[v].X), int(g.Nodes[v].Y), tUp)
							addBidi(h, vUp)
						}
					}
				}
			}
		}
	}

	g.NumRoutingBits = int(nextBit)

	// Build CSR adjacency.
	g.edgeStart = make([]int32, len(g.Nodes)+1)
	for _, e := range edges {
		g.edgeStart[e.from+1]++
	}
	for i := 1; i < len(g.edgeStart); i++ {
		g.edgeStart[i] += g.edgeStart[i-1]
	}
	g.edgeTo = make([]int32, len(edges))
	g.edgeBit = make([]int32, len(edges))
	cursor := make([]int32, len(g.Nodes))
	for _, e := range edges {
		pos := g.edgeStart[e.from] + cursor[e.from]
		g.edgeTo[pos] = e.to
		g.edgeBit[pos] = e.bit
		cursor[e.from]++
	}
	g.fillCoordSoA()
	return g
}

// TotalConfigBits returns the full configuration size of the region: all
// routing bits plus all LUT bits (the quantity MDR rewrites on every mode
// switch).
func (g *Graph) TotalConfigBits() int {
	return g.NumRoutingBits + g.Arch.TotalLUTBits()
}

// Checksum returns a word-folded FNV-1a-style hash over the graph's
// nodes, adjacency and configuration-bit assignment (one xor-multiply per
// element, not per byte). BuildGraph is deterministic, so two graphs of the same architecture have
// equal checksums; comparing a shared graph's checksum against a freshly
// built one is a cheap immutability check when one graph serves many
// concurrent routers.
func (g *Graph) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	for _, n := range g.Nodes {
		mix(uint64(n.Type)<<48 | uint64(uint16(n.X))<<32 | uint64(uint16(n.Y))<<16 | uint64(uint16(n.Track)))
	}
	for _, v := range g.edgeStart {
		mix(uint64(uint32(v)))
	}
	for i := range g.edgeTo {
		mix(uint64(uint32(g.edgeTo[i]))<<32 | uint64(uint32(g.edgeBit[i])))
	}
	mix(uint64(g.NumRoutingBits))
	return h
}

package arch

import (
	"testing"
	"testing/quick"
)

func TestSiteCounts(t *testing.T) {
	a := New(4, 3, 6)
	if got := len(a.CLBSites()); got != 12 {
		t.Errorf("CLB sites = %d, want 12", got)
	}
	if got := len(a.IOSites()); got != a.NumIOSites() {
		t.Errorf("IOSites len %d != NumIOSites %d", got, a.NumIOSites())
	}
	if a.NumIOSites() != 2*(4+3)*2 {
		t.Errorf("NumIOSites = %d, want 28", a.NumIOSites())
	}
}

func TestIOSitesUnique(t *testing.T) {
	a := New(5, 5, 8)
	seen := map[Site]bool{}
	for _, s := range a.IOSites() {
		if seen[s] {
			t.Fatalf("duplicate IO site %v", s)
		}
		seen[s] = true
		if !s.IsIO {
			t.Fatalf("IO site %v not marked IsIO", s)
		}
		if !a.OnRing(s.X, s.Y) {
			t.Fatalf("IO site %v not on perimeter", s)
		}
	}
	for _, s := range a.CLBSites() {
		if a.OnRing(s.X, s.Y) {
			t.Fatalf("logic site %v on the I/O ring", s)
		}
	}
}

func TestLUTBits(t *testing.T) {
	a := New(3, 3, 4)
	if a.LUTBitsPerCLB() != 17 {
		t.Errorf("LUTBitsPerCLB = %d, want 17 (16 truth-table + 1 FF select)", a.LUTBitsPerCLB())
	}
	if a.TotalLUTBits() != 9*17 {
		t.Errorf("TotalLUTBits = %d, want %d", a.TotalLUTBits(), 9*17)
	}
}

func TestMinGridForBlocks(t *testing.T) {
	cases := []struct {
		blocks, ios int
		relax       float64
		want        int
	}{
		{9, 4, 1.0, 3},
		{10, 4, 1.0, 4},
		{9, 40, 1.0, 5},   // IO-bound: 8*side >= 40
		{100, 4, 1.2, 11}, // side 10, area 120 -> 11^2=121
	}
	for _, tc := range cases {
		if got := MinGridForBlocks(tc.blocks, tc.ios, tc.relax); got != tc.want {
			t.Errorf("MinGridForBlocks(%d,%d,%v) = %d, want %d", tc.blocks, tc.ios, tc.relax, got, tc.want)
		}
	}
}

func TestGraphNodeIndexing(t *testing.T) {
	a := New(3, 2, 4)
	g := BuildGraph(a)
	// All node index helpers must land on nodes of the right type/coords.
	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			if n := g.Nodes[g.CLBSource(x, y)]; n.Type != NodeSource || int(n.X) != x || int(n.Y) != y {
				t.Fatalf("CLBSource(%d,%d) -> %+v", x, y, n)
			}
			if n := g.Nodes[g.CLBOpin(x, y)]; n.Type != NodeOPin {
				t.Fatalf("CLBOpin(%d,%d) -> %+v", x, y, n)
			}
			if n := g.Nodes[g.CLBSink(x, y)]; n.Type != NodeSink {
				t.Fatalf("CLBSink(%d,%d) -> %+v", x, y, n)
			}
			for p := 0; p < a.K; p++ {
				if n := g.Nodes[g.CLBIpin(x, y, p)]; n.Type != NodeIPin || int(n.Track) != p {
					t.Fatalf("CLBIpin(%d,%d,%d) -> %+v", x, y, p, n)
				}
			}
		}
	}
	for y := 0; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			for tr := 0; tr < a.W; tr++ {
				if n := g.Nodes[g.ChanX(x, y, tr)]; n.Type != NodeChanX || int(n.X) != x || int(n.Y) != y || int(n.Track) != tr {
					t.Fatalf("ChanX(%d,%d,%d) -> %+v", x, y, tr, n)
				}
			}
		}
	}
	for x := 0; x <= a.Width; x++ {
		for y := 1; y <= a.Height; y++ {
			for tr := 0; tr < a.W; tr++ {
				if n := g.Nodes[g.ChanY(x, y, tr)]; n.Type != NodeChanY || int(n.X) != x || int(n.Y) != y || int(n.Track) != tr {
					t.Fatalf("ChanY(%d,%d,%d) -> %+v", x, y, tr, n)
				}
			}
		}
	}
}

func TestGraphEdgeSanity(t *testing.T) {
	a := New(3, 3, 4)
	g := BuildGraph(a)
	nEdges := 0
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		tos := g.Edges(n)
		bits := g.EdgeBits(n)
		if len(tos) != len(bits) {
			t.Fatalf("node %d: edges/bits length mismatch", n)
		}
		nEdges += len(tos)
		from := g.Nodes[n]
		for i, to := range tos {
			if to < 0 || int(to) >= g.NumNodes() {
				t.Fatalf("node %d: edge to out-of-range %d", n, to)
			}
			if b := g.EdgeBit(n, to); b != bits[i] {
				t.Fatalf("EdgeBit(%d, %d) = %d, want %d", n, to, b, bits[i])
			}
			toN := g.Nodes[to]
			// Type-level legality.
			switch from.Type {
			case NodeSource:
				if toN.Type != NodeOPin {
					t.Fatalf("SOURCE->%v illegal", toN.Type)
				}
				if bits[i] != -1 {
					t.Fatalf("SOURCE edge has a config bit")
				}
			case NodeOPin:
				if !toN.IsWire() {
					t.Fatalf("OPIN->%v illegal", toN.Type)
				}
				if bits[i] < 0 {
					t.Fatalf("OPIN edge lacks a config bit")
				}
			case NodeIPin:
				if toN.Type != NodeSink {
					t.Fatalf("IPIN->%v illegal", toN.Type)
				}
			case NodeChanX, NodeChanY:
				if !(toN.IsWire() || toN.Type == NodeIPin) {
					t.Fatalf("wire->%v illegal", toN.Type)
				}
				if bits[i] < 0 {
					t.Fatalf("wire edge lacks a config bit")
				}
			case NodeSink:
				t.Fatalf("SINK has outgoing edge")
			}
		}
	}
	if nEdges == 0 {
		t.Fatal("graph has no edges")
	}
	if g.NumRoutingBits <= 0 {
		t.Fatal("no routing bits")
	}
}

func TestWireSwitchesShareBits(t *testing.T) {
	// Every wire-wire switch must appear as two directed edges with the
	// same bit id.
	a := New(2, 2, 2)
	g := BuildGraph(a)
	bitPair := map[int32][][2]int32{}
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		if !g.Nodes[n].IsWire() {
			continue
		}
		tos := g.Edges(n)
		bits := g.EdgeBits(n)
		for i, to := range tos {
			if g.Nodes[to].IsWire() {
				bitPair[bits[i]] = append(bitPair[bits[i]], [2]int32{n, to})
			}
		}
	}
	for bit, dirs := range bitPair {
		if len(dirs) != 2 {
			t.Fatalf("wire-wire bit %d has %d directed edges, want 2", bit, len(dirs))
		}
		if dirs[0][0] != dirs[1][1] || dirs[0][1] != dirs[1][0] {
			t.Fatalf("bit %d edges are not mutual: %v", bit, dirs)
		}
	}
}

func TestSwitchBlockPattern(t *testing.T) {
	// Straight-through switches preserve the track; turns may shift by one.
	a := New(3, 3, 4)
	g := BuildGraph(a)
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		if !g.Nodes[n].IsWire() {
			continue
		}
		for _, to := range g.Edges(n) {
			if !g.Nodes[to].IsWire() {
				continue
			}
			from, toN := g.Nodes[n], g.Nodes[to]
			if from.Type == toN.Type {
				if from.Track != toN.Track {
					t.Fatalf("straight switch changes track: %+v -> %+v", from, toN)
				}
				continue
			}
			d := (int(toN.Track) - int(from.Track) + a.W) % a.W
			if d != 0 && d != 1 && d != a.W-1 {
				t.Fatalf("turn switch shifts by %d: %+v -> %+v", d, from, toN)
			}
		}
	}
}

func TestTrackDomainsConnected(t *testing.T) {
	// Regression for the subset-switchbox pathology: every OPIN must reach
	// every IPIN of every logic block through the fabric.
	a := New(3, 3, 4)
	g := BuildGraph(a)
	start := g.CLBOpin(1, 1)
	reach := make([]bool, g.NumNodes())
	stack := []int32{start}
	reach[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range g.Edges(n) {
			if !reach[to] {
				reach[to] = true
				stack = append(stack, to)
			}
		}
	}
	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			for p := 0; p < a.K; p++ {
				if !reach[g.CLBIpin(x, y, p)] {
					t.Fatalf("IPIN (%d,%d).%d unreachable from OPIN (1,1)", x, y, p)
				}
			}
		}
	}
}

func TestEveryIpinReachableFromSomeWire(t *testing.T) {
	a := New(3, 3, 4)
	g := BuildGraph(a)
	inDeg := make([]int, g.NumNodes())
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		for _, to := range g.Edges(n) {
			inDeg[to]++
		}
	}
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		nd := g.Nodes[n]
		if nd.Type == NodeIPin && inDeg[n] == 0 {
			t.Fatalf("IPIN %+v unreachable", nd)
		}
		if nd.Type == NodeOPin && len(g.Edges(n)) == 0 {
			t.Fatalf("OPIN %+v has no fanout", nd)
		}
	}
}

func TestQuickGridRelaxMonotonic(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		return MinGridForBlocks(n, 4, 1.2) >= MinGridForBlocks(n, 4, 1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalConfigBits(t *testing.T) {
	a := New(4, 4, 6)
	g := BuildGraph(a)
	if g.TotalConfigBits() != g.NumRoutingBits+a.TotalLUTBits() {
		t.Error("TotalConfigBits mismatch")
	}
	// Routing must dominate the configuration, as the paper observes.
	if g.NumRoutingBits < a.TotalLUTBits() {
		t.Errorf("routing bits (%d) should dominate LUT bits (%d)", g.NumRoutingBits, a.TotalLUTBits())
	}
}

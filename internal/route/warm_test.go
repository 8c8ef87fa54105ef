package route

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
)

// warmNets builds a moderately congested multi-net instance.
func warmNets(g *arch.Graph) []Net {
	var nets []Net
	for y := 1; y <= 4; y++ {
		nets = append(nets, Net{
			Name:   fmt.Sprintf("h%d", y),
			Source: g.CLBSource(1, y),
			Sinks:  []int32{g.CLBSink(4, y), g.CLBSink(3, y)},
		})
	}
	nets = append(nets, Net{
		Name:   "diag",
		Source: g.CLBSource(2, 2),
		Sinks:  []int32{g.CLBSink(4, 4)},
	})
	return nets
}

func warmTrees(res *Result) []*Tree {
	warm := make([]*Tree, len(res.Trees))
	for i := range res.Trees {
		warm[i] = &res.Trees[i]
	}
	return warm
}

// A fully valid baseline must seed every connection and reconverge in one
// iteration to the identical result.
func TestWarmStartFullReuse(t *testing.T) {
	a := arch.New(4, 4, 4)
	g := arch.BuildGraph(a)
	nets := warmNets(g)
	cold, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Route(g, nets, Options{Warm: warmTrees(cold)})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, warm)
	if warm.Stats.WarmConns != warm.Stats.Connections {
		t.Fatalf("seeded %d/%d connections", warm.Stats.WarmConns, warm.Stats.Connections)
	}
	if warm.Stats.WarmNets != len(nets) {
		t.Fatalf("WarmNets %d, want %d", warm.Stats.WarmNets, len(nets))
	}
	if warm.Iterations != 1 || warm.Stats.TotalRerouted() != 0 {
		t.Fatalf("full warm start rerouted %d conns over %d iterations",
			warm.Stats.TotalRerouted(), warm.Iterations)
	}
	if !reflect.DeepEqual(warm.Trees, cold.Trees) {
		t.Fatal("full warm start changed the routing")
	}
}

// A baseline for a changed netlist (one net's sink moved) must seed the
// untouched nets, reroute the moved one cold, and produce a legal result.
func TestWarmStartPartialReuse(t *testing.T) {
	a := arch.New(4, 4, 4)
	g := arch.BuildGraph(a)
	nets := warmNets(g)
	cold, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edited := append([]Net(nil), nets...)
	edited[4].Sinks = []int32{g.CLBSink(2, 4)} // the "diag" cell moved
	warm, err := Route(g, edited, Options{Warm: warmTrees(cold)})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, edited, warm)
	if warm.Stats.WarmConns != cold.Stats.Connections-1 {
		t.Fatalf("seeded %d connections, want %d", warm.Stats.WarmConns, cold.Stats.Connections-1)
	}
}

// Garbage baselines — wrong length is an error; out-of-range nodes or
// trees that do not reach the sinks degrade to a cold route.
func TestWarmStartRejectsAndDegrades(t *testing.T) {
	a := arch.New(4, 4, 4)
	g := arch.BuildGraph(a)
	nets := warmNets(g)
	if _, err := Route(g, nets, Options{Warm: make([]*Tree, 1)}); err == nil {
		t.Fatal("mismatched Warm length not rejected")
	}
	bogus := make([]*Tree, len(nets))
	bogus[0] = &Tree{Edges: []Edge{{From: 1 << 30, To: 2}}}
	bogus[1] = &Tree{Edges: []Edge{{From: 5, To: 5}}} // cycle, reaches nothing
	res, err := Route(g, nets, Options{Warm: bogus})
	if err != nil {
		t.Fatal(err)
	}
	checkRouting(t, g, nets, res)
	if res.Stats.WarmConns != 0 {
		t.Fatalf("bogus baseline seeded %d connections", res.Stats.WarmConns)
	}
	cold, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trees, cold.Trees) {
		t.Fatal("degraded warm route differs from cold route")
	}
}

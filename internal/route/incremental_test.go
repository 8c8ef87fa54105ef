package route

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
)

// randomWorkload builds a seeded multi-mode netlist on a small fabric —
// congested enough to force several negotiation iterations, with per-sink
// mode masks exercising the union accounting.
func randomWorkload(seed int64) (*arch.Graph, []Net, Options) {
	rng := rand.New(rand.NewSource(seed))
	side := 4 + rng.Intn(3)
	a := arch.New(side, side, 4+rng.Intn(3))
	g := arch.BuildGraph(a)
	var nets []Net
	used := map[int32]bool{}
	numNets := 6 + rng.Intn(8)
	for i := 0; i < numNets; i++ {
		sx, sy := 1+rng.Intn(side), 1+rng.Intn(side)
		src := g.CLBSource(sx, sy)
		if used[src] {
			continue
		}
		used[src] = true
		n := Net{Name: fmt.Sprintf("n%d", i), Source: src, ModeMask: uint64(1 + rng.Intn(7))}
		seenSink := map[int32]bool{}
		for s := 0; s < 1+rng.Intn(6); s++ {
			sk := g.CLBSink(1+rng.Intn(side), 1+rng.Intn(side))
			if seenSink[sk] {
				continue
			}
			seenSink[sk] = true
			n.Sinks = append(n.Sinks, sk)
			n.SinkMasks = append(n.SinkMasks, uint64(1+rng.Intn(7))&n.ModeMask)
		}
		if len(n.Sinks) == 0 {
			continue
		}
		nets = append(nets, n)
	}
	return g, nets, Options{ModeCount: 3, MaxIters: 30}
}

// checkAccounting verifies the incremental engine's final bookkeeping
// against a from-scratch recompute of the same routing:
//
//   - structure: every tree is rooted at its source, reaches every sink,
//     uses only real RRG edges, and stores them in topological order (the
//     contract troute's reverse sweeps rely on);
//   - masks: NodeMasks equal the union of sink masks reached through each
//     node, recomputed from the sinks alone;
//   - legality: per-mode occupancy derived from the trees stays within
//     every node's capacity (congestion-free).
func checkAccounting(t *testing.T, g *arch.Graph, nets []Net, res *Result, modeCount int) {
	t.Helper()
	if len(res.Trees) != len(nets) {
		t.Fatalf("%d trees for %d nets", len(res.Trees), len(nets))
	}
	var allMask uint64 = 1<<uint(modeCount) - 1
	occ := make([][]int16, modeCount)
	for m := range occ {
		occ[m] = make([]int16, g.NumNodes())
	}
	for ni, tree := range res.Trees {
		net := &nets[ni]
		pos := map[int32]int{} // node -> discovery index
		for i, n := range tree.Nodes {
			if _, dup := pos[n]; dup {
				t.Fatalf("net %d: node %d appears twice in Nodes", ni, n)
			}
			pos[n] = i
		}
		if _, ok := pos[net.Source]; !ok {
			t.Fatalf("net %d: source not in tree", ni)
		}
		// Edge structure: real RRG edges, one in-edge per node, and the
		// topological order contract — the edge into a node precedes every
		// edge out of it.
		inEdge := map[int32]int{}
		for i, e := range tree.Edges {
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
			if _, dup := inEdge[e.To]; dup {
				t.Fatalf("net %d: node %d has two in-edges", ni, e.To)
			}
			inEdge[e.To] = i
			if e.From != net.Source {
				j, ok := inEdge[e.From]
				if !ok || j >= i {
					t.Fatalf("net %d: edge %d (%d->%d) precedes the edge into its tail", ni, i, e.From, e.To)
				}
			}
		}
		// Reachability of every sink.
		for _, s := range net.Sinks {
			if _, ok := pos[s]; !ok {
				t.Fatalf("net %d: sink %d not in tree", ni, s)
			}
		}
		// From-scratch mask recompute: seed sinks with their masks, fold
		// subtrees over the (verified topological) edge list in reverse.
		want := map[int32]uint64{}
		netMask := net.ModeMask & allMask
		if netMask == 0 {
			netMask = allMask
		}
		for i, s := range net.Sinks {
			m := netMask
			if net.SinkMasks != nil {
				if sm := net.SinkMasks[i] & allMask; sm != 0 {
					m = sm
				}
			}
			want[s] |= m
		}
		for i := len(tree.Edges) - 1; i >= 0; i-- {
			e := tree.Edges[i]
			want[e.From] |= want[e.To]
		}
		if len(net.Sinks) == 0 {
			want[net.Source] = netMask
		}
		for i, n := range tree.Nodes {
			if tree.NodeMasks[i] != want[n] {
				t.Fatalf("net %d node %d: NodeMask %b, from-scratch %b", ni, n, tree.NodeMasks[i], want[n])
			}
			for m := 0; m < modeCount; m++ {
				if tree.NodeMasks[i]>>uint(m)&1 == 1 {
					occ[m][n]++
				}
			}
		}
	}
	// Congestion-free: per-mode occupancy within capacity everywhere.
	caps := capacities(g)
	for m := range occ {
		for n := range occ[m] {
			if occ[m][n] > caps[n] {
				t.Fatalf("mode %d node %d (%v): occupancy %d exceeds capacity %d",
					m, n, g.Nodes[n], occ[m][n], caps[n])
			}
		}
	}
}

// TestIncrementalAccountingMatchesFromScratch routes seeded congested
// multi-mode workloads with the incremental engine and verifies the final
// routing is legal with mask accounting identical to a from-scratch
// recompute.
func TestIncrementalAccountingMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, nets, opt := randomWorkload(seed)
		res, err := Route(g, nets, opt)
		if err != nil {
			var un *ErrUnroutable
			if errors.As(err, &un) {
				continue // genuinely congested beyond capacity at this seed
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAccounting(t, g, nets, res, opt.ModeCount)
		if res.Stats.Connections == 0 || len(res.Stats.Rerouted) != res.Stats.Iterations {
			t.Fatalf("seed %d: inconsistent stats %+v", seed, res.Stats)
		}
		if res.Stats.Rerouted[0] != res.Stats.Connections {
			t.Fatalf("seed %d: first iteration rerouted %d of %d connections",
				seed, res.Stats.Rerouted[0], res.Stats.Connections)
		}
	}
}

// TestFullRipUpAlsoLegal runs the same workloads through the FullRipUp
// baseline: the classic whole-netlist behaviour must produce equally legal
// routings with exact accounting.
func TestFullRipUpAlsoLegal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, nets, opt := randomWorkload(seed)
		opt.FullRipUp = true
		res, err := Route(g, nets, opt)
		if err != nil {
			var un *ErrUnroutable
			if errors.As(err, &un) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAccounting(t, g, nets, res, opt.ModeCount)
	}
}

// TestRouteWorkerDeterminism: the complete Result — trees, iteration
// counts, reroute and requeue statistics — is identical whether a route
// runs alone or beside others, the way job-level workers (experiments
// Runner -j, mmserved -j) run independent compiles. Every workload is
// routed twice at once, so two routers also share each graph; under
// -race this proves concurrent routers share no mutable state.
func TestRouteWorkerDeterminism(t *testing.T) {
	const seeds = 8
	type outcome struct {
		res *Result
		err error
	}
	route := func(seed int) outcome {
		g, nets, opt := randomWorkload(int64(seed))
		res, err := Route(g, nets, opt)
		return outcome{res, err}
	}
	var want [seeds]outcome
	for seed := range want {
		want[seed] = route(seed)
	}
	var got [2 * seeds]outcome
	var wg sync.WaitGroup
	for seed := range seeds {
		g, nets, opt := randomWorkload(int64(seed))
		for _, i := range []int{seed, seeds + seed} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Route(g, nets, opt)
				got[i] = outcome{res, err}
			}()
		}
	}
	wg.Wait()
	for i, o := range got {
		if !reflect.DeepEqual(want[i%seeds], o) {
			t.Fatalf("seed %d: result differs when routed beside other jobs", i%seeds)
		}
	}
}

// TestRouteValidation covers the typed rejection of malformed nets.
func TestRouteValidation(t *testing.T) {
	a := arch.New(3, 3, 4)
	g := arch.BuildGraph(a)
	var inv *ErrInvalidNet

	_, err := Route(g, []Net{{
		Name:      "bad-masks",
		Source:    g.CLBSource(1, 1),
		Sinks:     []int32{g.CLBSink(2, 2), g.CLBSink(3, 3)},
		SinkMasks: []uint64{1},
	}}, Options{ModeCount: 2})
	if !errors.As(err, &inv) {
		t.Fatalf("mismatched SinkMasks: got %v, want ErrInvalidNet", err)
	}

	_, err = Route(g, []Net{{
		Name:   "dup-sink",
		Source: g.CLBSource(1, 1),
		Sinks:  []int32{g.CLBSink(2, 2), g.CLBSink(2, 2)},
	}}, Options{})
	if !errors.As(err, &inv) {
		t.Fatalf("duplicate sinks: got %v, want ErrInvalidNet", err)
	}

	// Two different nets sharing a sink node remain legal.
	nets := []Net{
		{Name: "a", Source: g.CLBSource(1, 1), Sinks: []int32{g.CLBSink(2, 2)}},
		{Name: "b", Source: g.CLBSource(3, 3), Sinks: []int32{g.CLBSink(2, 2)}},
	}
	if _, err := Route(g, nets, Options{}); err != nil {
		t.Fatalf("cross-net shared sink rejected: %v", err)
	}
}

// TestIncrementalConvergesFasterThanFullRipUp is the qualitative half of
// the BenchmarkRoute claim: on a congested workload the incremental engine
// must do strictly less reroute work than whole-netlist rip-up while
// reaching an equally legal routing.
func TestIncrementalConvergesFasterThanFullRipUp(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, nets, opt := randomWorkload(seed)
		inc, err1 := Route(g, nets, opt)
		full := opt
		full.FullRipUp = true
		rip, err2 := Route(g, nets, full)
		if err1 != nil || err2 != nil {
			continue
		}
		if rip.Iterations <= 1 {
			continue // uncongested: both engines cold-route once
		}
		if inc.Stats.TotalRerouted() >= rip.Stats.TotalRerouted() {
			t.Errorf("seed %d: incremental rerouted %d connections, full rip-up %d",
				seed, inc.Stats.TotalRerouted(), rip.Stats.TotalRerouted())
		}
	}
}

package troute

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/mode"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/techmap"
)

// mergedModes builds len(seeds) related circuits and merges them with
// combined placement — the N-mode generalisation of mergedPair.
func mergedModes(t *testing.T, seeds []int64, nGates int) (*merge.Result, arch.Arch) {
	t.Helper()
	mk := func(seed int64) *lutnet.Circuit {
		rng := rand.New(rand.NewSource(seed))
		b := netlist.NewBuilder(fmt.Sprintf("m%d", seed))
		sigs := b.InputVector("in", 4)
		for i := 0; i < nGates; i++ {
			x := sigs[rng.Intn(len(sigs))]
			y := sigs[rng.Intn(len(sigs))]
			var s int
			switch rng.Intn(4) {
			case 0:
				s = b.And(x, y)
			case 1:
				s = b.Or(x, y)
			case 2:
				s = b.Xor(x, y)
			default:
				s = b.Latch(x, false)
			}
			sigs = append(sigs, s)
		}
		for i := 0; i < 3; i++ {
			b.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
		}
		c, err := techmap.Map(b.N, 4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var modes []*lutnet.Circuit
	for _, s := range seeds {
		modes = append(modes, mk(s))
	}
	maxB, maxIO := 0, 0
	for _, c := range modes {
		if c.NumBlocks() > maxB {
			maxB = c.NumBlocks()
		}
		if io := c.NumPIs() + len(c.POs); io > maxIO {
			maxIO = io
		}
	}
	side := arch.MinGridForBlocks(maxB, maxIO, 1.2)
	a := arch.New(side, side, 12)
	res, err := merge.CombinedPlace("nm", modes, a, merge.Options{Seed: 1, Effort: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

// TestPerModePrunedTreesLegal is the core N-mode DCS invariant: pruning
// the routed Tunable trees to any one mode must leave, for every net
// active in that mode, a legal route — a tree rooted at the net's source
// (every kept edge hangs off an already-reached node, no node has two
// in-edges) that reaches every sink the mode needs. On top of the
// per-net check it verifies mode-exclusive wire sharing: no wire segment
// may be claimed by two different nets within the same mode.
func TestPerModePrunedTreesLegal(t *testing.T) {
	res, a := mergedModes(t, []int64{101, 102, 103}, 30)
	g := arch.BuildGraph(a)
	numModes := res.Tunable.NumModes
	if numModes != 3 {
		t.Fatalf("NumModes = %d, want 3", numModes)
	}

	nets, sinkActs, err := BuildNets(g, res.Tunable, res.LUTSite, res.PadSite)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RouteTunable(g, res.Tunable, res.LUTSite, res.PadSite, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Route.Trees) != len(nets) {
		t.Fatalf("%d trees for %d nets", len(tr.Route.Trees), len(nets))
	}

	nodeAct := make([]mode.Set, g.NumNodes())
	for m := 0; m < numModes; m++ {
		wireOwner := map[int32]int{} // wire node -> net claiming it in mode m
		for ni, tree := range tr.Route.Trees {
			acts := analyzeTree(tree, sinkActs[ni], nodeAct)
			reached := map[int32]bool{nets[ni].Source: true}
			inEdges := map[int32]int{}
			for i, e := range tree.Edges {
				if !acts[i].Contains(m) {
					continue
				}
				if !reached[e.From] {
					t.Fatalf("mode %d net %s: edge %v->%v hangs off an unreached node",
						m, nets[ni].Name, e.From, e.To)
				}
				if inEdges[e.To]++; inEdges[e.To] > 1 {
					t.Fatalf("mode %d net %s: node %v has two in-edges after pruning",
						m, nets[ni].Name, e.To)
				}
				reached[e.To] = true
				if g.Nodes[e.To].IsWire() {
					if prev, ok := wireOwner[e.To]; ok && prev != ni {
						t.Fatalf("mode %d: wire %v claimed by nets %s and %s",
							m, e.To, nets[prev].Name, nets[ni].Name)
					}
					wireOwner[e.To] = ni
				}
			}
			for sink, act := range sinkActs[ni] {
				if act.Contains(m) && !reached[sink] {
					t.Fatalf("mode %d net %s: sink %v not reached by the pruned tree",
						m, nets[ni].Name, sink)
				}
			}
		}
	}
}

// TestNModeRouteWorkerDeterminism asserts the router's determinism
// through the full TRoute stack on a 3-mode group: trees, bit
// classification and per-mode accounting must be identical whether the
// group routes alone or beside copies of itself on one shared graph, the
// way job-level workers (experiments.Runner -j, mmserved -j) share a
// cached graph.
func TestNModeRouteWorkerDeterminism(t *testing.T) {
	res, a := mergedModes(t, []int64{121, 122, 123}, 28)
	g := arch.BuildGraph(a)
	base, err := RouteTunable(g, res.Tunable, res.LUTSite, res.PadSite, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, 3)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RouteTunable(g, res.Tunable, res.LUTSite, res.PadSite, route.Options{})
		}()
	}
	wg.Wait()
	for i, tr := range got {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(base.Route, tr.Route) {
			t.Fatalf("job %d: routing differs from the lone route", i)
		}
		if !reflect.DeepEqual(base.BitModes, tr.BitModes) {
			t.Fatalf("job %d: bit classification differs from the lone route", i)
		}
		if base.ParamRoutingBits != tr.ParamRoutingBits || base.StaticOnBits != tr.StaticOnBits ||
			!reflect.DeepEqual(base.PerModeWire, tr.PerModeWire) || base.TotalWire != tr.TotalWire {
			t.Fatalf("job %d: accounting differs from the lone route", i)
		}
	}
}

// TestNModeBitClassification checks the static/parameterised partition on
// a 3-mode group: a routing bit is static exactly when every mode drives
// it on, and the per-mode wire counts must stay within the union routing.
func TestNModeBitClassification(t *testing.T) {
	res, a := mergedModes(t, []int64{111, 112, 113}, 26)
	g := arch.BuildGraph(a)
	tr, err := RouteTunable(g, res.Tunable, res.LUTSite, res.PadSite, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := mode.All(res.Tunable.NumModes)
	static, param := 0, 0
	for _, act := range tr.BitModes {
		if act == all {
			static++
		} else {
			param++
		}
	}
	if static != tr.StaticOnBits || param != tr.ParamRoutingBits {
		t.Fatalf("classification mismatch: got %d/%d, recomputed %d/%d",
			tr.StaticOnBits, tr.ParamRoutingBits, static, param)
	}
	for m, w := range tr.PerModeWire {
		if w <= 0 || w > tr.TotalWire {
			t.Errorf("mode %d wire %d outside (0, %d]", m, w, tr.TotalWire)
		}
	}
}

// Package troute implements TRoute: routing a placed Tunable circuit and
// extracting the parameterised routing configuration. Each Tunable net (a
// source entity and the union of its sinks over all modes) is routed as
// one physical tree; the tree is then pruned per mode to determine which
// switches each mode actually needs. A switch used in every mode is a
// static bit (written once, never reconfigured); a switch whose value
// differs between modes is a parameterised bit — the quantity the paper
// minimises, since reconfiguration time is proportional to the bits that
// must be rewritten on a mode change.
package troute

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/mode"
	"repro/internal/route"
	"repro/internal/tunable"
)

// Result is a routed Tunable circuit with its parameterised-bit analysis.
type Result struct {
	Route *route.Result
	Nets  []route.Net

	// BitModes maps each switched-on routing bit to the set of modes in
	// which it must be on. Bits absent from the map are static 0.
	BitModes map[int32]mode.Set

	// ParamRoutingBits counts routing bits whose value depends on the mode
	// (the parameterised bits of the configuration).
	ParamRoutingBits int
	// StaticOnBits counts routing bits on in every mode (routed once,
	// never rewritten).
	StaticOnBits int
	// PerModeWire[m] is the number of wire segments mode m actually uses.
	PerModeWire []int
	// TotalWire is the wire usage of the union routing.
	TotalWire int
	// PinActs[i] maps, for net i, each CLB input-pin node the net enters
	// to the set of modes using that pin — the per-mode LUT-input
	// permutation needed to assemble real configurations.
	PinActs []map[int32]mode.Set
}

// entitySiteMap resolves Tunable entities to RRG endpoint nodes.
type entitySiteMap struct {
	g       *arch.Graph
	ioIdx   arch.IOIndexer
	lutSite []arch.Site
	padSite []arch.Site
}

func (em *entitySiteMap) sourceNode(e tunable.Entity) (int32, error) {
	if e.IsPad {
		s := em.padSite[e.Idx]
		i, ok := em.ioIdx[s]
		if !ok {
			return 0, fmt.Errorf("troute: pad group %d on unknown site %v", e.Idx, s)
		}
		return em.g.PadSource(i), nil
	}
	s := em.lutSite[e.Idx]
	return em.g.CLBSource(s.X, s.Y), nil
}

func (em *entitySiteMap) sinkNode(e tunable.Entity) (int32, error) {
	if e.IsPad {
		s := em.padSite[e.Idx]
		i, ok := em.ioIdx[s]
		if !ok {
			return 0, fmt.Errorf("troute: pad group %d on unknown site %v", e.Idx, s)
		}
		return em.g.PadSink(i), nil
	}
	s := em.lutSite[e.Idx]
	return em.g.CLBSink(s.X, s.Y), nil
}

// BuildNets converts a placed Tunable circuit into router nets plus, per
// net, the activation set of every SINK node (union over the Tunable
// connections landing there).
func BuildNets(g *arch.Graph, tc *tunable.Circuit, lutSite, padSite []arch.Site) ([]route.Net, []map[int32]mode.Set, error) {
	if len(lutSite) != len(tc.TLUTs) || len(padSite) != len(tc.TPads) {
		return nil, nil, fmt.Errorf("troute: site arrays (%d,%d) do not match circuit (%d,%d)",
			len(lutSite), len(padSite), len(tc.TLUTs), len(tc.TPads))
	}
	em := &entitySiteMap{g: g, ioIdx: g.Arch.NewIOIndexer(), lutSite: lutSite, padSite: padSite}

	type srcKey struct {
		isPad bool
		idx   int
	}
	bySrc := map[srcKey]map[int32]mode.Set{}
	var order []srcKey
	for _, cn := range tc.Conns {
		k := srcKey{cn.Src.IsPad, cn.Src.Idx}
		if _, ok := bySrc[k]; !ok {
			bySrc[k] = map[int32]mode.Set{}
			order = append(order, k)
		}
		sk, err := em.sinkNode(cn.Dst)
		if err != nil {
			return nil, nil, err
		}
		bySrc[k][sk] = bySrc[k][sk].Union(cn.Act)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].isPad != order[j].isPad {
			return !order[i].isPad
		}
		return order[i].idx < order[j].idx
	})

	var nets []route.Net
	var sinkActs []map[int32]mode.Set
	for _, k := range order {
		src, err := em.sourceNode(tunable.Entity{IsPad: k.isPad, Idx: k.idx})
		if err != nil {
			return nil, nil, err
		}
		n := route.Net{Name: tunable.Entity{IsPad: k.isPad, Idx: k.idx}.String(), Source: src}
		sinks := make([]int32, 0, len(bySrc[k]))
		var netAct mode.Set
		for sk, act := range bySrc[k] {
			sinks = append(sinks, sk)
			netAct = netAct.Union(act)
		}
		sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
		n.Sinks = sinks
		// Mode-exclusive connections may share routing resources: tell the
		// router which modes the net and each branch occupy.
		n.ModeMask = uint64(netAct)
		n.SinkMasks = make([]uint64, len(sinks))
		for i, sk := range sinks {
			n.SinkMasks[i] = uint64(bySrc[k][sk])
		}
		nets = append(nets, n)
		sinkActs = append(sinkActs, bySrc[k])
	}
	return nets, sinkActs, nil
}

// RouteTunable routes the Tunable circuit and computes the parameterised
// configuration bits.
func RouteTunable(g *arch.Graph, tc *tunable.Circuit, lutSite, padSite []arch.Site, opt route.Options) (*Result, error) {
	nets, sinkActs, err := BuildNets(g, tc, lutSite, padSite)
	if err != nil {
		return nil, err
	}
	opt.ModeCount = tc.NumModes
	rr, err := route.Route(g, nets, opt)
	if err != nil {
		return nil, fmt.Errorf("troute: %w", err)
	}

	res := &Result{
		Route:       rr,
		Nets:        nets,
		BitModes:    map[int32]mode.Set{},
		PerModeWire: make([]int, tc.NumModes),
	}
	all := mode.All(tc.NumModes)

	res.PinActs = make([]map[int32]mode.Set, len(rr.Trees))
	// nodeAct is shared scratch for the per-tree subtree analysis, sized to
	// the graph once and wiped via each tree's node list (O(tree), not
	// O(graph), per net).
	nodeAct := make([]mode.Set, g.NumNodes())
	for ni, tree := range rr.Trees {
		acts := analyzeTree(tree, sinkActs[ni], nodeAct)
		res.PinActs[ni] = map[int32]mode.Set{}
		for i, e := range tree.Edges {
			act := acts[i]
			if act.Empty() {
				continue
			}
			if n := g.Nodes[e.To]; n.Type == arch.NodeIPin && !g.Arch.OnRing(int(n.X), int(n.Y)) {
				res.PinActs[ni][e.To] = res.PinActs[ni][e.To].Union(act)
			}
			if bit := g.EdgeBit(e.From, e.To); bit >= 0 {
				res.BitModes[bit] = res.BitModes[bit].Union(act)
			}
			// Wire accounting: count the edge's target when it is a wire
			// segment (each tree wire node has exactly one incoming edge).
			if g.Nodes[e.To].IsWire() {
				for m := 0; m < tc.NumModes; m++ {
					if act.Contains(m) {
						res.PerModeWire[m]++
					}
				}
				res.TotalWire++
			}
		}
	}
	for _, act := range res.BitModes {
		if act == all {
			res.StaticOnBits++
		} else {
			res.ParamRoutingBits++
		}
	}
	return res, nil
}

// analyzeTree returns, for every tree edge, the set of modes that need it:
// the union of activations of the sinks in the subtree below the edge.
// It exploits the topological edge order guaranteed by route.Tree (the edge
// into a node precedes every edge out of it): one reverse sweep folds each
// subtree's activation into its root, with nodeAct as caller-provided
// scratch that is left zeroed again on return.
func analyzeTree(tree route.Tree, sinkAct map[int32]mode.Set, nodeAct []mode.Set) []mode.Set {
	for node, a := range sinkAct {
		nodeAct[node] = a
	}
	acts := make([]mode.Set, len(tree.Edges))
	for i := len(tree.Edges) - 1; i >= 0; i-- {
		e := tree.Edges[i]
		acts[i] = nodeAct[e.To]
		nodeAct[e.From] = nodeAct[e.From].Union(nodeAct[e.To])
	}
	for _, node := range tree.Nodes {
		nodeAct[node] = 0
	}
	return acts
}

// ReconfigBits returns the DCS reconfiguration cost in bits under the
// paper's accounting: all LUT bits of the region are rewritten on every
// mode switch, plus only the parameterised routing bits.
func (r *Result) ReconfigBits(a arch.Arch) int {
	return a.TotalLUTBits() + r.ParamRoutingBits
}

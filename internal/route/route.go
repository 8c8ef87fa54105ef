// Package route implements a connection-based PathFinder router over the
// routing-resource graph of package arch: negotiated congestion with
// present and history costs, A*-accelerated Dijkstra per connection, and
// per-net routing trees recording the programmable switches used (the
// routing configuration bits).
//
// The engine is incremental: every net is decomposed into source→sink
// connections, each holding its complete source-rooted path, and a
// negotiation iteration rips up and reroutes only the connections that
// cross congested nodes (plus a small history-driven set) instead of the
// whole netlist. A net's tree is the union of its connections' paths —
// new connections attach to the existing tree, so partial reroutes reuse
// everything that already converged.
//
// Iterations are batched and deterministic: connections are processed in
// fixed-size batches; every connection of a batch is routed against
// congestion state frozen for the batch, and results are committed in
// canonical net order. A commit that would newly overuse a node another
// net claimed in the same batch is requeued and rerouted against live
// state. Batch composition and commit order are fixed, so the batch
// protocol — not evaluation order — defines every routed result.
//
// The routing-resource graph itself is never written, so one graph can be
// shared by any number of concurrently running routers.
package route

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/obs"
)

// Net is one signal to route from a SOURCE node to one or more SINK nodes.
// ModeMask is the set of modes in which the net is active (Tunable
// routing): nets with disjoint masks may share routing resources, because
// the modes are mutually exclusive in time. A zero mask means "active in
// every mode".
type Net struct {
	Name     string
	Source   int32
	Sinks    []int32
	ModeMask uint64
	// SinkMasks optionally refines ModeMask per sink (parallel to Sinks):
	// the branch reaching a sink only occupies that sink's modes, so two
	// mode-disjoint connections can share a block pin. Nil means every
	// sink inherits ModeMask.
	SinkMasks []uint64
}

// Edge is one directed RRG edge used by a route.
type Edge struct {
	From, To int32
}

// Tree is the routing of one net: the set of nodes and directed edges used.
// NodeMasks (parallel to Nodes) records the mode mask each node serves —
// the union of the masks of the sinks reached through it.
//
// Edges are stored in discovery order, which is topological: the edge into
// a node always precedes every edge out of it. Consumers (troute's
// per-mode pruning) rely on this to compute subtree properties in one
// reverse sweep.
type Tree struct {
	Nodes     []int32
	Edges     []Edge
	NodeMasks []uint64
}

// Stats describes the work one Route call performed.
type Stats struct {
	// Iterations is the number of negotiation iterations executed.
	Iterations int
	// Connections is the number of source→sink connections in the netlist.
	Connections int
	// Rerouted[i] is the number of connections ripped up and rerouted in
	// iteration i+1. Rerouted[0] == Connections on a cold route (a warm
	// start reroutes only the connections its baseline could not seed);
	// later entries shrink as congestion localises.
	Rerouted []int
	// WarmConns is the number of connections seeded intact from
	// Options.Warm baseline trees; WarmNets the number of nets with at
	// least one such connection.
	WarmConns int
	WarmNets  int
	// Requeued counts batch commits that conflicted and were rerouted
	// against live state. Deterministic: conflicts depend on batch
	// composition and commit order alone.
	Requeued int
	// PeakOveruse is the worst single-mode overuse observed on any node
	// across all iterations.
	PeakOveruse int
	// HeapPushes and NodesVisited count the A* inner loop's work: priority
	// queue improvements (inserts plus decrease-keys) and node expansions
	// across every search. Each connection's search is a pure function of
	// the congestion state it runs against, so both counts are as
	// reproducible as the routed trees themselves.
	HeapPushes   int64
	NodesVisited int64
}

// TotalRerouted sums the per-iteration reroute counts.
func (s Stats) TotalRerouted() int {
	t := 0
	for _, n := range s.Rerouted {
		t += n
	}
	return t
}

// Summary is the scalar aggregate of one or more routes' Stats — the one
// place that knows which fields sum and which take the maximum, shared by
// every layer that reports router work (the compile service's JSON, the
// experiment sweep's group artifacts).
type Summary struct {
	// Iterations is the summed negotiation iteration count.
	Iterations int `json:"iterations"`
	// Connections is the summed source→sink connection count.
	Connections int `json:"connections"`
	// Rerouted is the summed number of connection reroutes (the cold
	// route counts each connection once; congested iterations add more).
	Rerouted int `json:"rerouted"`
	// PeakOveruse is the worst single-mode node overuse seen anywhere.
	PeakOveruse int `json:"peak_overuse"`
	// Requeued counts batch commits rerouted after conflicts.
	Requeued int `json:"requeued,omitempty"`
}

// Add folds one route's Stats into the aggregate.
func (a *Summary) Add(s Stats) {
	a.Iterations += s.Iterations
	a.Connections += s.Connections
	a.Rerouted += s.TotalRerouted()
	a.Requeued += s.Requeued
	if s.PeakOveruse > a.PeakOveruse {
		a.PeakOveruse = s.PeakOveruse
	}
}

// Result is a complete routing.
type Result struct {
	Trees []Tree
	// Iterations is the number of PathFinder iterations needed.
	Iterations int
	// Stats details the incremental engine's work.
	Stats Stats
}

// The PathFinder cost constants: the present-congestion factor of the
// first iteration, the weight of each iteration's overuse in the history
// cost, and the A* lower-bound weight on Manhattan distance.
const (
	firstPresFac = 0.5
	accFac       = 1.0
	aStarFac     = 1.1
)

// Options tunes the router.
type Options struct {
	MaxIters    int     // default 40
	PresFacMult float64 // default 1.8
	// ModeCount is the number of modes for Tunable routing: occupancy is
	// tracked per mode, so nets with disjoint mode masks can share wires,
	// pins and sinks — each mode reconfigures the switches for itself.
	// Default 1 (ordinary single-mode routing).
	ModeCount int
	// FullRipUp disables the incremental engine: every connection is
	// ripped up and rerouted on every iteration, as in classic whole-net
	// PathFinder. The baseline for BenchmarkRoute and a debugging aid.
	FullRipUp bool
	// Warm, when non-nil, is parallel to the nets slice and seeds the
	// router from a baseline routing (the ECO warm start): for each
	// non-nil tree, every connection whose sink is reachable from the
	// net's source by walking the tree's edges starts already routed on
	// that path, and only the rest — moved cells, edited nets, seeds
	// crossing overused nodes — are ripped up for negotiation. Trees that
	// no longer fit (different graph, moved source or sink) degrade to a
	// cold route for the affected connections; warm seeding can slow
	// convergence at worst, never change what a successful result means.
	Warm []*Tree
	// Obs, when non-nil, receives the call's Stats as mm_route_* metrics
	// after the negotiation finishes. Observed only at the call boundary —
	// the inner loops never touch it — so a nil registry costs nothing and
	// a live one cannot perturb results. Never hashed into cache keys.
	Obs *obs.Registry
	// Ctx, when non-nil, cancels the route: it is checked once at the top
	// of every negotiation iteration — a boundary no trajectory depends
	// on — and a cancelled route returns Ctx.Err() with no result. Like
	// Obs it never enters a key.
	Ctx context.Context
	// OnStall, when non-nil, is called from the routing goroutine after
	// every iteration that leaves the stall counter at full-netlist
	// rip-up (see stallFullRip), with the iteration's number: a route
	// that will not converge spends the rest of its MaxIters budget
	// there. It only observes — nothing it does feeds back into routing —
	// and like Obs it never enters a key.
	OnStall func(iter int)
}

func (o *Options) fill() {
	if o.MaxIters == 0 {
		o.MaxIters = 40
	}
	if o.PresFacMult == 0 {
		o.PresFacMult = 1.8
	}
	if o.ModeCount == 0 {
		o.ModeCount = 1
	}
}

// ErrUnroutable is returned when congestion cannot be resolved.
type ErrUnroutable struct {
	Overused int
	Iters    int
	Detail   string // description of a few overused nodes
	// Stats is the work the failed route did before giving up.
	Stats Stats
}

func (e *ErrUnroutable) Error() string {
	return fmt.Sprintf("route: %d overused nodes after %d iterations%s", e.Overused, e.Iters, e.Detail)
}

// ErrInvalidNet reports a malformed net specification. The router rejects
// these up front: a SinkMasks slice not parallel to Sinks, or a sink node
// listed twice, would silently corrupt the tree's mode-mask accounting if
// routed (callers that can legitimately hit one sink node from several
// logical pins must dedup, unioning the masks — see troute.BuildNets and
// NetsForPlacedCircuit).
type ErrInvalidNet struct {
	Net    string
	Reason string
}

func (e *ErrInvalidNet) Error() string {
	return fmt.Sprintf("route: net %q: %s", e.Net, e.Reason)
}

// validateNets rejects malformed net specifications before any state is
// built.
func validateNets(nets []Net) error {
	seen := map[int32]int{}
	for i := range nets {
		n := &nets[i]
		if n.SinkMasks != nil && len(n.SinkMasks) != len(n.Sinks) {
			return &ErrInvalidNet{Net: n.Name, Reason: fmt.Sprintf(
				"SinkMasks has %d entries for %d sinks", len(n.SinkMasks), len(n.Sinks))}
		}
		for _, s := range n.Sinks {
			if prev, ok := seen[s]; ok && prev == i {
				return &ErrInvalidNet{Net: n.Name, Reason: fmt.Sprintf(
					"duplicate sink node %d", s)}
			}
			seen[s] = i
		}
	}
	return nil
}

func baseCost(t arch.NodeType) float64 {
	switch t {
	case arch.NodeChanX, arch.NodeChanY:
		return 1.0
	case arch.NodeIPin:
		return 0.95
	case arch.NodeOPin:
		return 1.0
	case arch.NodeSink, arch.NodeSource:
		return 0.0
	}
	return 1.0
}

func capacities(g *arch.Graph) []int16 {
	caps := make([]int16, g.NumNodes())
	k := int16(g.Arch.K)
	for i := range caps {
		n := g.Nodes[i]
		onRing := n.X == 0 || n.Y == 0 || int(n.X) == g.Arch.Width+1 || int(n.Y) == g.Arch.Height+1
		switch n.Type {
		case arch.NodeSink:
			// A CLB sink accepts up to K nets per mode (one per input
			// pin); pad sinks accept one.
			if onRing {
				caps[i] = 1
			} else {
				caps[i] = k
			}
		default:
			caps[i] = 1
		}
	}
	return caps
}

// Route routes all nets, returning per-net trees. The graph is read-only
// throughout; all mutable state is private to this call, so concurrent
// Route calls may share g.
func Route(g *arch.Graph, nets []Net, opt Options) (*Result, error) {
	opt.fill()
	if err := validateNets(nets); err != nil {
		return nil, err
	}
	if opt.Warm != nil && len(opt.Warm) != len(nets) {
		return nil, fmt.Errorf("route: Warm has %d entries for %d nets", len(opt.Warm), len(nets))
	}
	r := newRouter(g, nets, opt)
	res, err := r.run()
	var un *ErrUnroutable
	switch {
	case res != nil:
		observe(opt.Obs, &res.Stats)
	case errors.As(err, &un):
		observe(opt.Obs, &un.Stats) // a failed route's work counts too
	}
	return res, err
}

// observe records one finished route's Stats into the registry. Work
// counters go into histograms (per-call distributions) rather than raw
// counters so a scrape distinguishes "many small routes" from "one huge
// route". Bounds are the shared obs.WorkBuckets, fixed by contract.
func observe(reg *obs.Registry, s *Stats) {
	if reg == nil {
		return
	}
	reg.Counter("mm_route_calls_total", "Route invocations.").Inc()
	reg.Histogram("mm_route_iterations",
		"Negotiation iterations per Route call.", obs.WorkBuckets).
		Observe(float64(s.Iterations))
	rerouted := reg.Histogram("mm_route_rerouted_connections",
		"Connections ripped up and rerouted, per negotiation iteration.", obs.WorkBuckets)
	for _, n := range s.Rerouted {
		rerouted.Observe(float64(n))
	}
	reg.Histogram("mm_route_requeued_connections",
		"Batch commits that conflicted and were rerouted against live state, per Route call.",
		obs.WorkBuckets).Observe(float64(s.Requeued))
	reg.Histogram("mm_route_heap_pushes",
		"A* priority-queue pushes and decrease-keys per Route call.", obs.WorkBuckets).
		Observe(float64(s.HeapPushes))
	reg.Histogram("mm_route_nodes_visited",
		"A* node expansions per Route call.", obs.WorkBuckets).
		Observe(float64(s.NodesVisited))
	reg.Histogram("mm_route_warm_connections",
		"Connections seeded intact from a warm baseline, per Route call.", obs.WorkBuckets).
		Observe(float64(s.WarmConns))
}

// WireLength counts the wire-segment nodes of a tree.
func WireLength(g *arch.Graph, t Tree) int {
	n := 0
	for _, node := range t.Nodes {
		if g.Nodes[node].IsWire() {
			n++
		}
	}
	return n
}

// TotalWireLength sums WireLength over all trees.
func TotalWireLength(g *arch.Graph, res *Result) int {
	total := 0
	for _, t := range res.Trees {
		total += WireLength(g, t)
	}
	return total
}

// UsedBits returns the set of routing configuration bits switched on by the
// given trees (bit ids from the architecture graph).
func UsedBits(g *arch.Graph, trees []Tree) map[int32]bool {
	used := map[int32]bool{}
	for _, t := range trees {
		for _, e := range t.Edges {
			bits := g.EdgeBits(e.From)
			for i, to := range g.Edges(e.From) {
				if to == e.To {
					if bits[i] >= 0 {
						used[bits[i]] = true
					}
					break
				}
			}
		}
	}
	return used
}

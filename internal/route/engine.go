package route

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/arch"
)

// batchConns is the target number of connections per batch. It is a fixed
// constant because batch composition decides which connections see which
// frozen congestion snapshot: changing it moves every routed result.
const batchConns = 64

// histExtraDiv bounds the history-driven reroute set: at most
// max(histExtraMin, connections/histExtraDiv) uncongested connections that
// sit on full, history-laden nodes are rerouted per iteration, giving
// negotiation a chance to vacate chronic hotspots before they overflow.
const (
	histExtraDiv = 16
	histExtraMin = 4
)

// Stall escalation: connection-level rip-up can livelock on instances
// where two nets flip-flop over one resource (classic whole-net PathFinder
// escapes these by reorganising entire trees). When the overused-node
// count has gone stallNetRip iterations without beating its best so far
// the rip-up scope widens to whole nets (every connection of any net
// touching congestion); at stallFullRip it widens to the full netlist.
// The counter resets only on a new all-time best, not on any
// improvement: a route that keeps setting new lows never escalates, but
// once a route that cannot converge plateaus above its best, every later
// iteration rips up the whole netlist — on a failing TRoute that is most
// of its MaxIters budget. Resetting after each full rip-up instead is
// much cheaper but changes trajectories, lowering the MDR/DCS speed-up
// and lengthening DCS wires; ARCHITECTURE.md ("The routing engine")
// records the measurement.
const (
	stallNetRip  = 4
	stallFullRip = 8
)

// conn is one source→sink connection. path, when routed, is the complete
// node sequence from the net's SOURCE to the sink; a net's tree is the
// union of its connections' paths, which stays a tree because a reroute
// only ever attaches fresh nodes to the existing union (shared prefixes
// are shared wires).
type conn struct {
	sink  int32
	mask  uint64  // occupancy mask of this connection
	path  []int32 // full source→sink path; nil = unrouted
	dirty bool    // scheduled for rip-up and reroute this iteration
}

// netRT is the routing state of one net.
type netRT struct {
	orig   int // index into the caller's net slice
	name   string
	source int32
	mask   uint64 // net-wide mode mask (normalised)
	conns  []conn // canonical (nearest-sink-first) order
}

// connRef addresses one connection canonically.
type connRef struct {
	net  int32 // canonical net index
	conn int32
}

// job is one net's reroute work within a batch: the dirty connection
// indices and, after the route phase, the new full paths (parallel to
// dirty).
type job struct {
	net   int32
	dirty []int32
	paths [][]int32
}

// router carries the PathFinder state. Occupancy is per mode: a node is
// overused only if some single mode oversubscribes it, so nets of disjoint
// mode masks share resources freely.
//
// The congestion state is node-major: occ[node*nModes+m] and
// hist[node*nModes+m] keep one node's per-mode occupancy and history on
// the same cache line, because every nodeCost evaluation in the A* inner
// loop scans all modes of one node — the mode-major [mode][node] layout
// touched nModes scattered lines per call. The m = 0..nModes-1 summation
// order inside each node is unchanged, so every cost comes out
// bit-identical to the old layout (TestRoutedResultGoldenHashes).
type router struct {
	g      *arch.Graph
	opt    Options
	nModes int
	cap    []int16
	occ    []int16   // node-major: occ[node*nModes+m]
	hist   []float64 // node-major: history is per mode, so contention in
	// one mode does not repel nets of other modes from resources they
	// could legally share
	base    []float64 // precomputed baseCost per node
	presFac float64
	allMask uint64
	nets    []netRT // canonical order

	search *searcher

	// Worklist scratch reused across iterations: jobs is the flat per-net
	// job list, batchEnds its batch boundaries, dirtyBuf the backing array
	// every job's dirty slice points into (capacity fixed at the total
	// connection count, so appends never reallocate and the subslices stay
	// valid).
	jobs      []job
	batchEnds []int
	dirtyBuf  []int32

	// Union-table scratch for occupancy bookkeeping: treeMask[n] is the
	// mode mask net-under-edit occupies at n, treeList the nodes with a
	// nonzero entry (the wipe list).
	treeMask []uint64
	treeList []int32

	// Batch-commit conflict tracking: touchedBy[n] is the canonical index
	// of the last net whose commit increased occupancy at n in the current
	// batch (-1 outside commits), touchedList the wipe list.
	touchedBy   []int32
	touchedList []int32

	stats Stats
}

func newRouter(g *arch.Graph, nets []Net, opt Options) *router {
	r := &router{g: g, opt: opt, nModes: opt.ModeCount, cap: capacities(g)}
	r.occ = make([]int16, g.NumNodes()*r.nModes)
	r.hist = make([]float64, g.NumNodes()*r.nModes)
	r.base = make([]float64, g.NumNodes())
	for i := range r.base {
		r.base[i] = baseCost(g.Nodes[i].Type)
	}
	if opt.ModeCount >= 64 {
		r.allMask = ^uint64(0)
	} else {
		r.allMask = uint64(1)<<uint(opt.ModeCount) - 1
	}

	maskOf := func(n *Net) uint64 {
		if n.ModeMask == 0 {
			return r.allMask
		}
		return n.ModeMask & r.allMask
	}

	// Stable net order: nets active in more modes first (they have the
	// least resource-sharing freedom), then high-fanout, then by name.
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := nets[order[i]], nets[order[j]]
		pa, pb := bits.OnesCount64(maskOf(&a)), bits.OnesCount64(maskOf(&b))
		if pa != pb {
			return pa > pb
		}
		if len(a.Sinks) != len(b.Sinks) {
			return len(a.Sinks) > len(b.Sinks)
		}
		return a.Name < b.Name
	})

	r.nets = make([]netRT, len(nets))
	for ci, ni := range order {
		n := &nets[ni]
		netMask := maskOf(n)
		nr := &r.nets[ci]
		nr.orig = ni
		nr.name = n.Name
		nr.source = n.Source
		nr.mask = netMask

		// Deterministic connection order: nearest sink first, ties by
		// sink id. New connections attach to the tree grown by earlier
		// ones, so near sinks laying trunk first shortens the rest.
		idx := make([]int, len(n.Sinks))
		for i := range idx {
			idx[i] = i
		}
		sx, sy := g.Xs[n.Source], g.Ys[n.Source]
		sort.SliceStable(idx, func(i, j int) bool {
			a, b := n.Sinks[idx[i]], n.Sinks[idx[j]]
			da := math.Abs(float64(g.Xs[a]-sx)) + math.Abs(float64(g.Ys[a]-sy))
			db := math.Abs(float64(g.Xs[b]-sx)) + math.Abs(float64(g.Ys[b]-sy))
			if da != db {
				return da < db
			}
			return n.Sinks[idx[i]] < n.Sinks[idx[j]]
		})
		nr.conns = make([]conn, len(idx))
		for k, si := range idx {
			mask := netMask
			if n.SinkMasks != nil {
				if m := n.SinkMasks[si] & r.allMask; m != 0 {
					mask = m
				}
			}
			nr.conns[k] = conn{sink: n.Sinks[si], mask: mask, dirty: true}
			r.stats.Connections++
		}
		if opt.Warm != nil {
			if t := opt.Warm[ni]; t != nil {
				r.seedWarm(nr, t)
			}
		}
	}

	r.treeMask = make([]uint64, g.NumNodes())
	r.touchedBy = make([]int32, g.NumNodes())
	for i := range r.touchedBy {
		r.touchedBy[i] = -1
	}
	r.search = newSearcher(r)
	// Fixed-capacity dirty backing array: an iteration schedules at most
	// every connection, so subslices handed to jobs never reallocate.
	r.dirtyBuf = make([]int32, 0, r.stats.Connections)
	// Park every net's source: isolated nets (no sinks) occupy their
	// source for the whole run, and the rip/commit bookkeeping below
	// always removes a net's full contribution before re-adding it.
	for ni := range r.nets {
		r.buildUnion(&r.nets[ni])
		r.applyUnion(+1)
		r.wipeUnion()
	}
	if opt.Warm != nil {
		r.dirtyOverusedWarm()
	}
	return r
}

// seedWarm pre-routes net nr's connections from a baseline tree: for each
// sink reachable from nr.source by a backward walk over the tree's edges,
// the connection starts routed on that source-rooted path and clean. A
// sink the walk cannot resolve — the cell moved, the tree belongs to an
// older geometry, the edge list is cyclic — leaves its connection dirty,
// so it simply routes cold. A tree holding an edge the graph does not
// have (out of bounds, or two nodes no wire joins) seeds nothing: all of
// the net's connections route cold. Occupancy for the seeded paths is
// folded in by the source-parking pass in newRouter.
func (r *router) seedWarm(nr *netRT, t *Tree) {
	numNodes := int32(r.g.NumNodes())
	if nr.source < 0 || nr.source >= numNodes {
		return
	}
	parent := make(map[int32]int32, len(t.Edges))
	for _, e := range t.Edges {
		if e.From < 0 || e.From >= numNodes || e.To < 0 || e.To >= numNodes ||
			!slices.Contains(r.g.Edges(e.From), e.To) {
			return
		}
		parent[e.To] = e.From
	}
	var rev []int32
	seeded := false
	for ci := range nr.conns {
		c := &nr.conns[ci]
		rev = rev[:0]
		node := c.sink
		ok := false
		for steps := 0; steps <= len(t.Edges); steps++ {
			rev = append(rev, node)
			if node == nr.source {
				ok = true
				break
			}
			p, exists := parent[node]
			if !exists {
				break
			}
			node = p
		}
		if !ok {
			continue
		}
		path := make([]int32, len(rev))
		for i, n := range rev {
			path[len(rev)-1-i] = n
		}
		c.path = path
		c.dirty = false
		seeded = true
		r.stats.WarmConns++
	}
	if seeded {
		r.stats.WarmNets++
	}
}

// dirtyOverusedWarm re-marks any warm-seeded connection whose path crosses
// a node overused in one of its modes. Mutually legal baseline trees never
// trip this, but a transferred placement can seed paths that collide with
// the fixed sources of moved nets — without this pass such a collision
// would present as "nothing to reroute, yet overused" and fail, instead of
// entering negotiation.
func (r *router) dirtyOverusedWarm() {
	for ni := range r.nets {
		N := &r.nets[ni]
		for ci := range N.conns {
			c := &N.conns[ci]
			if c.dirty || c.path == nil {
				continue
			}
		scan:
			for _, node := range c.path {
				occ := r.occ[int(node)*r.nModes : int(node)*r.nModes+r.nModes]
				for m := 0; m < r.nModes; m++ {
					if c.mask>>uint(m)&1 == 1 && occ[m] > r.cap[node] {
						c.dirty = true
						break scan
					}
				}
			}
		}
	}
}

// nodeCost prices node n for a branch occupying curMask, with history over
// histMask. Worst overuse over the modes the branch is active in; for ≥3
// modes histMask is the whole net's mask: the prefix shared by a net's
// branches carries the union of their modes, so a branch that prices only
// its own modes can keep re-choosing a prefix whose congestion lives in a
// sibling branch's mode — the history term is what breaks that deadlock.
func (r *router) nodeCost(n int32, curMask, histMask uint64) float64 {
	b := r.base[n]
	var worst int16
	var h float64
	// The 1- and 2-mode cases are unrolled: this is the hottest call in
	// the A* expansion loop, and the masked maxima over non-negative
	// occupancy/history values come out identical with or without the
	// generic scan, so specialisation cannot change routed bytes.
	switch r.nModes {
	case 1:
		if histMask&1 != 0 {
			h = r.hist[n]
		}
		if curMask&1 != 0 {
			worst = r.occ[n]
		}
	case 2:
		off := int(n) * 2
		if histMask&1 != 0 {
			h = r.hist[off]
		}
		if histMask&2 != 0 && r.hist[off+1] > h {
			h = r.hist[off+1]
		}
		if curMask&1 != 0 {
			worst = r.occ[off]
		}
		if curMask&2 != 0 && r.occ[off+1] > worst {
			worst = r.occ[off+1]
		}
	default:
		off := int(n) * r.nModes
		occ := r.occ[off : off+r.nModes]
		hist := r.hist[off : off+r.nModes]
		for m := 0; m < r.nModes; m++ {
			if histMask>>uint(m)&1 == 1 && hist[m] > h {
				h = hist[m]
			}
			if curMask>>uint(m)&1 == 0 {
				continue
			}
			if o := occ[m]; o > worst {
				worst = o
			}
		}
	}
	over := float64(worst + 1 - r.cap[n])
	pres := 1.0
	if over > 0 {
		pres += r.presFac * over
	}
	return b * (1 + h) * pres
}

// adjustOcc adds delta to the occupancy of node n in every mode of mask.
func (r *router) adjustOcc(n int32, mask uint64, delta int16) {
	occ := r.occ[int(n)*r.nModes : int(n)*r.nModes+r.nModes]
	for m := 0; m < r.nModes; m++ {
		if mask>>uint(m)&1 == 1 {
			occ[m] += delta
		}
	}
}

// buildUnionPaths fills the union table with the contribution of net N's
// routed connections: each occupies every node of its path in the
// connection's modes. The caller must wipeUnion when done.
func (r *router) buildUnionPaths(N *netRT) {
	r.treeList = r.treeList[:0]
	for ci := range N.conns {
		c := &N.conns[ci]
		if c.path == nil {
			continue
		}
		for _, node := range c.path {
			if r.treeMask[node] == 0 {
				r.treeList = append(r.treeList, node)
			}
			r.treeMask[node] |= c.mask
		}
	}
}

// finishUnion parks the source of a net with no routed connections. It
// must run after every fold into the table and before applyUnion, so the
// applied contribution is always a pure function of the net's connection
// state — mixing the parked-source entry with folded paths would leak
// occupancy in the modes the paths don't cover.
func (r *router) finishUnion(N *netRT) {
	if r.treeMask[N.source] == 0 {
		r.treeMask[N.source] = N.mask
		r.treeList = append(r.treeList, N.source)
	}
}

// buildUnion fills the union table with net N's complete current
// contribution (routed connections, or the parked source).
func (r *router) buildUnion(N *netRT) {
	r.buildUnionPaths(N)
	r.finishUnion(N)
}

// applyUnion adds delta occupancy over the current union table.
func (r *router) applyUnion(delta int16) {
	for _, n := range r.treeList {
		r.adjustOcc(n, r.treeMask[n], delta)
	}
}

// wipeUnion clears the union table in O(touched).
func (r *router) wipeUnion() {
	for _, n := range r.treeList {
		r.treeMask[n] = 0
	}
	r.treeList = r.treeList[:0]
}

// ripNet removes the paths of the given dirty connections, updating
// occupancy to the remaining tree.
func (r *router) ripNet(N *netRT, dirty []int32) {
	r.buildUnion(N)
	r.applyUnion(-1)
	r.wipeUnion()
	for _, ci := range dirty {
		N.conns[ci].path = nil
	}
	r.buildUnion(N)
	r.applyUnion(+1)
	r.wipeUnion()
}

// commitNet folds a routed batch job into net N: each new path is conflict
// checked (would it newly overuse a node another net's commit claimed this
// batch?) and either accepted or requeued for a serial reroute. Occupancy
// moves from the net's pre-commit contribution to the accepted union, and
// every node whose occupancy grew is stamped for later conflict checks.
func (r *router) commitNet(canon int32, jb *job, requeue *[]connRef) {
	N := &r.nets[canon]
	r.buildUnion(N)
	r.applyUnion(-1) // occ now excludes N entirely
	r.wipeUnion()
	r.buildUnionPaths(N) // conflict-check base: remaining connections only
	for k, ci := range jb.dirty {
		p := jb.paths[k]
		c := &N.conns[ci]
		conflict := false
		for _, node := range p {
			add := c.mask &^ r.treeMask[node]
			if add == 0 {
				continue
			}
			if tb := r.touchedBy[node]; tb >= 0 && tb != canon {
				occ := r.occ[int(node)*r.nModes : int(node)*r.nModes+r.nModes]
				for m := 0; m < r.nModes; m++ {
					if add>>uint(m)&1 == 1 && occ[m]+1 > r.cap[node] {
						conflict = true
						break
					}
				}
				if conflict {
					break
				}
			}
		}
		if conflict {
			*requeue = append(*requeue, connRef{net: canon, conn: int32(ci)})
			r.stats.Requeued++
			continue
		}
		c.path = p
		for _, node := range p {
			if c.mask&^r.treeMask[node] == 0 {
				continue
			}
			if r.treeMask[node] == 0 {
				r.treeList = append(r.treeList, node)
			}
			r.treeMask[node] |= c.mask
			if r.touchedBy[node] < 0 {
				r.touchedList = append(r.touchedList, node)
			}
			r.touchedBy[node] = canon
		}
	}
	r.finishUnion(N)
	r.applyUnion(+1)
	r.wipeUnion()
}

// commitOne folds a single serially rerouted connection (requeue fallback:
// no conflict check, live state).
func (r *router) commitOne(N *netRT, ci int32, p []int32) {
	r.buildUnion(N)
	r.applyUnion(-1)
	r.wipeUnion()
	N.conns[ci].path = p
	r.buildUnion(N)
	r.applyUnion(+1)
	r.wipeUnion()
}

// run executes the negotiation loop.
func (r *router) run() (*Result, error) {
	g := r.g
	var requeue []connRef
	bestOverused := int(^uint(0) >> 1)
	stall := 0
	for iter := 1; iter <= r.opt.MaxIters; iter++ {
		if r.opt.Ctx != nil {
			if err := r.opt.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Present-congestion schedule: the first two iterations discover
		// congestion at the opening factor, then the price escalates.
		if iter <= 2 {
			r.presFac = firstPresFac
		} else {
			r.presFac *= r.opt.PresFacMult
			if r.presFac > 1e6 {
				r.presFac = 1e6
			}
		}

		// Collect this iteration's worklist as per-net jobs, canonical
		// order, batched at batchConns connections. jobs / batchEnds /
		// dirtyBuf are scratch reused across iterations; dirtyBuf's
		// capacity is fixed at the total connection count, so the dirty
		// subslices handed to jobs never move.
		r.jobs = r.jobs[:0]
		r.batchEnds = r.batchEnds[:0]
		r.dirtyBuf = r.dirtyBuf[:0]
		inBatch := 0
		rerouted := 0
		for ni := range r.nets {
			N := &r.nets[ni]
			start := len(r.dirtyBuf)
			for ci := range N.conns {
				if N.conns[ci].dirty {
					r.dirtyBuf = append(r.dirtyBuf, int32(ci))
					N.conns[ci].dirty = false
				}
			}
			dirty := r.dirtyBuf[start:len(r.dirtyBuf):len(r.dirtyBuf)]
			if len(dirty) == 0 {
				continue
			}
			rerouted += len(dirty)
			r.jobs = append(r.jobs, job{net: int32(ni), dirty: dirty})
			inBatch += len(dirty)
			if inBatch >= batchConns {
				r.batchEnds = append(r.batchEnds, len(r.jobs))
				inBatch = 0
			}
		}
		if inBatch > 0 {
			r.batchEnds = append(r.batchEnds, len(r.jobs))
		}
		if rerouted == 0 {
			// Nothing to rip. Either the netlist routed trivially (no
			// connections at all), or the remaining overuse sits on fixed
			// source nodes no reroute can move.
			if r.countOverused() == 0 {
				r.stats.Iterations = iter
				r.stats.Rerouted = append(r.stats.Rerouted, 0)
				return r.result(), nil
			}
			break
		}
		r.stats.Rerouted = append(r.stats.Rerouted, rerouted)
		r.stats.Iterations = iter

		requeue = requeue[:0]
		bStart := 0
		for _, bEnd := range r.batchEnds {
			batch := r.jobs[bStart:bEnd]
			bStart = bEnd
			for ji := range batch {
				r.ripNet(&r.nets[batch[ji].net], batch[ji].dirty)
			}
			// Route phase: occ/hist/presFac stay frozen for the whole
			// batch; each job depends only on that state plus its own net.
			for ji := range batch {
				if err := r.search.routeJob(&batch[ji]); err != nil {
					return nil, fmt.Errorf("route: net %q: %w", r.nets[batch[ji].net].name, err)
				}
			}
			// Commit phase: canonical order.
			for ji := range batch {
				r.commitNet(batch[ji].net, &batch[ji], &requeue)
			}
			for _, n := range r.touchedList {
				r.touchedBy[n] = -1
			}
			r.touchedList = r.touchedList[:0]
		}

		// Requeue fallback: conflicting commits reroute one at a time
		// against live congestion, still in canonical order.
		for _, cr := range requeue {
			N := &r.nets[cr.net]
			p, err := r.search.routeOne(N, cr.conn)
			if err != nil {
				return nil, fmt.Errorf("route: net %q: %w", N.name, err)
			}
			r.commitOne(N, cr.conn, p)
		}

		// Congestion check: a node is overused if any single mode
		// oversubscribes it; history accumulates in that mode only.
		overused := 0
		for n := 0; n < g.NumNodes(); n++ {
			over := false
			off := n * r.nModes
			occ := r.occ[off : off+r.nModes]
			hist := r.hist[off : off+r.nModes]
			for m := 0; m < r.nModes; m++ {
				if d := occ[m] - r.cap[n]; d > 0 {
					over = true
					hist[m] += accFac * float64(d)
					if int(d) > r.stats.PeakOveruse {
						r.stats.PeakOveruse = int(d)
					}
				}
			}
			if over {
				overused++
			}
		}
		if overused == 0 {
			return r.result(), nil
		}
		if overused < bestOverused {
			bestOverused = overused
			stall = 0
		} else {
			stall++
			if stall >= stallFullRip && r.opt.OnStall != nil {
				r.opt.OnStall(iter)
			}
		}
		r.markDirty(stall)
	}

	// Unroutable: report a few overused nodes.
	overused := 0
	detail := ""
	for n := 0; n < g.NumNodes(); n++ {
		var worst int16
		occ := r.occ[n*r.nModes : n*r.nModes+r.nModes]
		for m := 0; m < r.nModes; m++ {
			if occ[m] > worst {
				worst = occ[m]
			}
		}
		if worst > r.cap[n] {
			overused++
			if overused <= 3 {
				detail += fmt.Sprintf("; node %d %v occ=%d cap=%d", n, g.Nodes[n], worst, r.cap[n])
			}
		}
	}
	r.stats.HeapPushes = r.search.heapPushes
	r.stats.NodesVisited = r.search.nodesVisited
	return nil, &ErrUnroutable{Overused: overused, Iters: r.stats.Iterations, Detail: detail, Stats: r.stats}
}

// markDirty schedules the next iteration's reroute set: every connection
// crossing a node overused in one of its modes, plus — capped — clean
// connections parked on full nodes with congestion history, which lets
// negotiation vacate chronic hotspots early. The stall counter widens the
// scope when congestion stops beating its best (see stallNetRip/stallFullRip);
// FullRipUp schedules everything unconditionally (the classic
// whole-netlist behaviour).
func (r *router) markDirty(stall int) {
	if r.opt.FullRipUp || stall >= stallFullRip {
		for ni := range r.nets {
			for ci := range r.nets[ni].conns {
				r.nets[ni].conns[ci].dirty = true
			}
		}
		return
	}
	maxExtra := r.stats.Connections / histExtraDiv
	if maxExtra < histExtraMin {
		maxExtra = histExtraMin
	}
	extra := 0
	for ni := range r.nets {
		N := &r.nets[ni]
		netOver := false
		for ci := range N.conns {
			c := &N.conns[ci]
			over, histFull := false, false
		scan:
			for _, node := range c.path {
				off := int(node) * r.nModes
				occ := r.occ[off : off+r.nModes]
				hist := r.hist[off : off+r.nModes]
				for m := 0; m < r.nModes; m++ {
					if c.mask>>uint(m)&1 == 0 {
						continue
					}
					switch {
					case occ[m] > r.cap[node]:
						over = true
						break scan
					case occ[m] == r.cap[node] && hist[m] > 0:
						histFull = true
					}
				}
			}
			if over {
				c.dirty = true
				netOver = true
			} else if histFull && extra < maxExtra {
				c.dirty = true
				extra++
			}
		}
		if netOver && stall >= stallNetRip {
			// Whole-net escalation: let the stuck net reorganise its
			// entire tree, as classic PathFinder would.
			for ci := range N.conns {
				N.conns[ci].dirty = true
			}
		}
	}
}

// countOverused counts nodes oversubscribed in some mode, without the
// main scan's history side effects.
func (r *router) countOverused() int {
	overused := 0
	for n := 0; n < r.g.NumNodes(); n++ {
		occ := r.occ[n*r.nModes : n*r.nModes+r.nModes]
		for m := 0; m < r.nModes; m++ {
			if occ[m] > r.cap[n] {
				overused++
				break
			}
		}
	}
	return overused
}

// result builds the public Trees from the per-net connection paths. Edges
// are emitted in path-walk discovery order, which is topological: a node's
// incoming edge is appended when the node is first discovered, before any
// later connection walks past it.
func (r *router) result() *Result {
	trees := make([]Tree, len(r.nets))
	seen := make([]bool, r.g.NumNodes())
	for ni := range r.nets {
		N := &r.nets[ni]
		t := Tree{Nodes: []int32{N.source}}
		seen[N.source] = true
		for ci := range N.conns {
			p := N.conns[ci].path
			for i := 1; i < len(p); i++ {
				if seen[p[i]] {
					continue
				}
				t.Edges = append(t.Edges, Edge{From: p[i-1], To: p[i]})
				t.Nodes = append(t.Nodes, p[i])
				seen[p[i]] = true
			}
		}
		for _, node := range t.Nodes {
			seen[node] = false
		}
		r.buildUnion(N)
		t.NodeMasks = make([]uint64, len(t.Nodes))
		for i, node := range t.Nodes {
			t.NodeMasks[i] = r.treeMask[node]
		}
		r.wipeUnion()
		trees[N.orig] = t
	}
	r.stats.HeapPushes = r.search.heapPushes
	r.stats.NodesVisited = r.search.nodesVisited
	res := &Result{Trees: trees, Iterations: r.stats.Iterations, Stats: r.stats}
	return res
}

package route

import (
	"fmt"
	"math"
)

// pqItem is one priority-queue entry. Items are values, not pointers: the
// heap is a plain slice that is reset (not freed) between searches, so a
// search allocates nothing once the slice has grown to its working size.
// The entry is deliberately 16 bytes — est plus node, no path cost: the
// cost is read back from visited[] on a pop, and the decrease-key queue
// (see heapPush) holds at most one entry per node, so no staleness state
// rides along. Sift swaps move these, so the bytes matter.
type pqItem struct {
	est  float64 // path cost + A* lower bound
	node int32
}

// less orders the heap by estimated total cost, breaking ties by node id so
// the search (and therefore the whole routing) is deterministic.
func (a pqItem) less(b pqItem) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	return a.node < b.node
}

// seedItem is one seed-frontier entry: 8 bytes, integer-keyed. A seed's
// est is aStarFac·distance with the path cost always zero, and x ↦
// aStarFac·x is strictly increasing, so ordering by (key, node) — where
// key is the Manhattan distance — is exactly the (est, node) order of
// the main heap. Integer compares
// and half-size sift traffic make loading the seed frontier (the bulk of
// all queue entries, re-done per connection) much cheaper; the float est
// is materialised only when a seed top is compared against the main
// heap's.
type seedItem struct {
	key  int32 // Manhattan distance to the sink
	node int32
}

func (a seedItem) less(b seedItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.node < b.node
}

// searcher is the router's search state: the A* scratch plus the
// net-local tree view (seed membership and parent pointers) used to grow
// full source-rooted paths. A search reads the router's congestion arrays
// and writes only the searcher.
type searcher struct {
	r *router

	heap    []pqItem   // open improvements (decrease-key indexed via pos)
	seeds   []seedItem // static per-search seed frontier (see search)
	pos     []int32    // node → current heap index, -1 when not enqueued
	prev    []int32    // backtrace pointer per node
	visited []float64  // best path cost per node (MaxFloat64 = unvisited)
	lb      []float64  // A* lower bound, cached at first touch per search
	touched []int32    // nodes whose visited entry must be reset
	path    []int32    // backtraced attach→sink segment of the last search

	curMask  uint64 // mask of the connection being routed
	histMask uint64 // mask for history pricing (see router.nodeCost)

	// Net-local tree view, wiped via seedList after each net.
	inTree   []bool
	parent   []int32 // tree parent per node, for source-prefix reconstruction
	seedList []int32
	prefix   []int32 // scratch for the source→attach prefix walk

	// Inner-loop work counters, copied into Stats by router.result(). Each
	// connection's search is a pure function of the congestion state it
	// runs against, so the counts are part of the seeded trajectory.
	heapPushes   int64
	nodesVisited int64
}

func newSearcher(r *router) *searcher {
	n := r.g.NumNodes()
	s := &searcher{
		r:       r,
		pos:     make([]int32, n),
		prev:    make([]int32, n),
		visited: make([]float64, n),
		lb:      make([]float64, n),
		touched: make([]int32, 0, n),
		inTree:  make([]bool, n),
		parent:  make([]int32, n),
		heap:    make([]pqItem, 0, 256),
	}
	for i := range s.visited {
		s.visited[i] = math.MaxFloat64
		s.pos[i] = -1
	}
	return s
}

// seedTree loads net N's current tree (the union of its routed
// connections' paths) into the searcher's membership and parent arrays.
func (s *searcher) seedTree(N *netRT) {
	s.seedList = s.seedList[:0]
	s.addSeed(N.source, -1)
	for ci := range N.conns {
		p := N.conns[ci].path
		for i := 1; i < len(p); i++ {
			if !s.inTree[p[i]] {
				s.addSeed(p[i], p[i-1])
			}
		}
	}
}

func (s *searcher) addSeed(node, parent int32) {
	s.inTree[node] = true
	s.parent[node] = parent
	s.seedList = append(s.seedList, node)
}

// wipeTree clears the net-local view in O(touched).
func (s *searcher) wipeTree() {
	for _, n := range s.seedList {
		s.inTree[n] = false
	}
	s.seedList = s.seedList[:0]
}

// routeJob routes every dirty connection of one net against the frozen
// congestion state, filling jb.paths with full source→sink paths. The
// net's tree grows connection by connection within the job, so later
// connections attach to segments found for earlier ones.
func (s *searcher) routeJob(jb *job) error {
	N := &s.r.nets[jb.net]
	s.seedTree(N)
	defer s.wipeTree()
	jb.paths = make([][]int32, len(jb.dirty))
	for k, ci := range jb.dirty {
		p, err := s.connect(N, &N.conns[ci])
		if err != nil {
			return err
		}
		jb.paths[k] = p
	}
	return nil
}

// routeOne reroutes a single connection (the requeue fallback)
// against live congestion state.
func (s *searcher) routeOne(N *netRT, ci int32) ([]int32, error) {
	s.seedTree(N)
	defer s.wipeTree()
	return s.connect(N, &N.conns[ci])
}

// connect finds a path for one connection: an A* search seeded with the
// whole current tree, then the attach-node prefix walk that turns the
// backtraced segment into a full source→sink path. The tree view is
// extended with the new segment so subsequent connections can attach to
// it.
func (s *searcher) connect(N *netRT, c *conn) ([]int32, error) {
	s.curMask = c.mask
	// History pricing: per-branch for 1-2 modes (the paper's tuning),
	// net-wide from 3 modes up — see router.nodeCost.
	s.histMask = c.mask
	if s.r.nModes >= 3 {
		s.histMask = N.mask
	}
	seg, err := s.search(c.sink)
	if err != nil {
		return nil, err
	}
	// seg runs attach→sink with seg[0] in the tree. Reconstruct the
	// source→attach prefix from the parent pointers, then append.
	s.prefix = s.prefix[:0]
	for n := seg[0]; n != -1; n = s.parent[n] {
		s.prefix = append(s.prefix, n)
	}
	full := make([]int32, 0, len(s.prefix)+len(seg)-1)
	for i := len(s.prefix) - 1; i >= 0; i-- {
		full = append(full, s.prefix[i])
	}
	full = append(full, seg[1:]...)
	for i := 1; i < len(seg); i++ {
		if !s.inTree[seg[i]] {
			s.addSeed(seg[i], seg[i-1])
		}
	}
	return full, nil
}

// search finds the cheapest path from any tree node to the sink. The
// returned slice is scratch owned by the searcher, valid until the next
// search call.
func (s *searcher) search(sink int32) ([]int32, error) {
	const unvisited = math.MaxFloat64
	r := s.r
	s.heap = s.heap[:0]
	s.touched = s.touched[:0]
	push := func(node int32, cost float64, from int32) {
		if s.visited[node] <= cost {
			return
		}
		// The lower bound is a constant per (node, sink): compute it on
		// the node's first touch of this search and reuse the identical
		// value on every later improvement, so re-improvements (the common
		// case under the overweighted A* heuristic) skip the coordinate
		// loads entirely.
		if s.visited[node] == unvisited {
			s.touched = append(s.touched, node)
			s.lb[node] = s.lowerBound(node, sink)
		}
		// Counts improvements (inserts and decrease-keys alike), so the
		// number is comparable across queue implementations: it equals the
		// entry count a lazy-deletion queue would absorb for this search.
		s.heapPushes++
		s.visited[node] = cost
		s.prev[node] = from
		s.heapPush(pqItem{node: node, est: cost + s.lb[node]})
	}
	defer func() {
		// The heap still holds the open frontier when the sink is found;
		// clear its node→index entries so the next search starts from the
		// all-out invariant (live pops clear their own). Seed visited
		// entries are reset from seedList — they never enter touched.
		for _, e := range s.heap {
			s.pos[e.node] = -1
		}
		for _, n := range s.seedList {
			s.visited[n] = unvisited
		}
		for _, n := range s.touched {
			s.visited[n] = unvisited
		}
	}()
	// Seeds — the whole current tree, re-seeded per connection — are the
	// bulk of all queue entries, yet almost none of them ever pop. They
	// live in their own Floyd-heapified array: seeds enter at cost 0 and
	// an improvement would need a negative cost, so no seed is ever
	// decrease-keyed (and no node is in both queues), which makes the
	// seed heap static — loaded in O(seeds) with no position tracking.
	// The main heap is left holding only live improvements, a handful of
	// entries instead of hundreds. Extract-min over the two-queue union
	// takes whichever top is less(); the pop sequence over the union is
	// the same as one combined heap's, so the split cannot change routed
	// bytes.
	// Seeds skip the touched list (the deferred reset walks seedList
	// directly) and the lb cache (a seed is never re-improved, so its
	// cached bound would never be read).
	s.seeds = s.seeds[:0]
	sx, sy := int32(r.g.Xs[sink]), int32(r.g.Ys[sink])
	for _, n := range s.seedList {
		dx := int32(r.g.Xs[n]) - sx
		if dx < 0 {
			dx = -dx
		}
		dy := int32(r.g.Ys[n]) - sy
		if dy < 0 {
			dy = -dy
		}
		s.visited[n] = 0
		s.prev[n] = -1
		s.heapPushes++
		s.seeds = append(s.seeds, seedItem{key: dx + dy, node: n})
	}
	s.heapifySeeds()
	// seedEst materialises the seed top's float est for the cross-queue
	// comparison — the same aStarFac·distance product the one-heap scheme
	// stored, so the interleaving is bit-identical.
	seedEst := func() float64 {
		return float64(s.seeds[0].key) * aStarFac
	}
	sinkFlag := r.g.SinkFlags
	for len(s.heap) > 0 || len(s.seeds) > 0 {
		var node int32
		if len(s.seeds) > 0 {
			if len(s.heap) > 0 {
				est := seedEst()
				if top := &s.heap[0]; est > top.est || (est == top.est && s.seeds[0].node > top.node) {
					node = s.heapPop().node
				} else {
					node = s.seedPop()
				}
			} else {
				node = s.seedPop()
			}
		} else {
			node = s.heapPop().node
		}
		s.nodesVisited++
		if node == sink {
			// Backtrace into the reusable path buffer, then reverse it in
			// place so it runs attach→sink.
			path := s.path[:0]
			for n := sink; n != -1; n = s.prev[n] {
				path = append(path, n)
				if s.prev[n] == -1 {
					break
				}
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			s.path = path
			return path, nil
		}
		cost := s.visited[node]
		for _, to := range r.g.Edges(node) {
			// Sinks other than the target are dead ends. The flat flag
			// array keeps the check off the Node structs (see Graph.Xs).
			if sinkFlag[to] && to != sink {
				continue
			}
			push(to, cost+r.nodeCost(to, s.curMask, s.histMask), node)
		}
	}
	return nil, fmt.Errorf("no path to sink %d (%v)", sink, r.g.Nodes[sink])
}

// lowerBound estimates the remaining cost from node n to the target sink
// (Manhattan distance in channel units; admissible for unit-length wires).
// It reads the graph's SoA coordinate arrays: the full Node structs span
// several cache lines each, and this is the hottest load in the search.
// The distance is summed in integers — exact, so bit-identical to the
// float formulation — and converted once.
func (s *searcher) lowerBound(n, target int32) float64 {
	g := s.r.g
	dx := int32(g.Xs[n]) - int32(g.Xs[target])
	if dx < 0 {
		dx = -dx
	}
	dy := int32(g.Ys[n]) - int32(g.Ys[target])
	if dy < 0 {
		dy = -dy
	}
	return float64(dx+dy) * aStarFac
}

// The priority queue is a 4-ary implicit heap with a node→index side
// array (s.pos) for in-place decrease-key: an improvement to an
// already-enqueued node re-prices its existing entry and sifts it up
// instead of inserting a duplicate. The classic lazy-deletion queue
// absorbs an order of magnitude more entries than live pops (every
// superseded duplicate is pushed, popped and discarded, each a full
// sift); here the heap never exceeds the open frontier and every pop is
// live. Pop order is unchanged: both schemes extract the minimum of the
// per-node-latest entries under less()'s strict total order (est ties
// break by node id, and one node never carries two equal ests), so the
// queue implementation is invisible to routing results. 4-ary because
// half the levels of binary, and one parent's four 16-byte children sit
// on a single cache line.

// heapPush inserts node's entry, or decrease-keys the one already
// enqueued. Improvements strictly lower est, so re-pricing only ever
// sifts up.
func (s *searcher) heapPush(it pqItem) {
	if p := s.pos[it.node]; p >= 0 {
		s.heap[p].est = it.est
		s.siftUp(int(p))
		return
	}
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	s.pos[it.node] = int32(i)
	s.siftUp(i)
}

// heapPop removes and returns the minimum item, sifting down.
func (s *searcher) heapPop() pqItem {
	q := s.heap
	top := q[0]
	s.pos[top.node] = -1
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	s.heap = q
	if n > 0 {
		s.pos[q[0].node] = 0
		s.siftDown(0)
	}
	return top
}

// heapifySeeds establishes the heap property over the seed array in
// O(n) (Floyd's bottom-up construction). Seeds carry no position index,
// so the sifts are pure slice traffic.
func (s *searcher) heapifySeeds() {
	q := s.seeds
	n := len(q)
	for i := (n - 2) >> 2; i >= 0; i-- {
		siftDownSeeds(q, i)
	}
}

// seedPop removes and returns the minimum seed's node.
func (s *searcher) seedPop() int32 {
	q := s.seeds
	top := q[0].node
	n := len(q) - 1
	q[0] = q[n]
	s.seeds = q[:n]
	if n > 0 {
		siftDownSeeds(s.seeds, 0)
	}
	return top
}

// siftDownSeeds is siftDown without the node→index bookkeeping.
func siftDownSeeds(q []seedItem, i int) {
	n := len(q)
	it := q[i]
	for {
		small := -1
		c := i<<2 + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if q[c].less(it) && (small < 0 || q[c].less(q[small])) {
				small = c
			}
		}
		if small < 0 {
			break
		}
		q[i] = q[small]
		i = small
	}
	q[i] = it
}

// siftDown restores the heap property below index i. The sift carries
// the displaced item in a register and moves smaller children into the
// hole (one write each) instead of swapping — the element arrangement it
// produces is the same.
func (s *searcher) siftDown(i int) {
	q := s.heap
	n := len(q)
	it := q[i]
	for {
		small := -1
		c := i<<2 + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if q[c].less(it) && (small < 0 || q[c].less(q[small])) {
				small = c
			}
		}
		if small < 0 {
			break
		}
		q[i] = q[small]
		s.pos[q[i].node] = int32(i)
		i = small
	}
	q[i] = it
	s.pos[it.node] = int32(i)
}

// siftUp restores the heap property above index i, hole-style like
// heapPop's sift-down.
func (s *searcher) siftUp(i int) {
	q := s.heap
	it := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !it.less(q[p]) {
			break
		}
		q[i] = q[p]
		s.pos[q[i].node] = int32(i)
		i = p
	}
	q[i] = it
	s.pos[it.node] = int32(i)
}

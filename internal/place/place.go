// Package place implements a VPR-style wirelength-driven placer for
// island FPGAs: half-perimeter bounding-box cost with the q(n) pin-count
// correction and range-limited swap moves, driven by the shared
// simulated-annealing kernel in internal/anneal. The same engine places
// ordinary mapped circuits (the MDR flow), and Tunable circuits after
// merging (TPlace) — both reduce to the generic cell/net Problem below.
//
// The cost model is incremental and two-tier. Nets above smallNetPins
// carry a bounding box with per-edge occupancy counters, maintained in
// O(1) amortised per move — a full per-pin rescan happens only when a
// move vacates a box edge (recompute-on-shrink). That turns the
// high-fanout broadcast nets of the paper's workloads (a regex engine's
// char-match nets reach >150 pins) from a per-move rescan into a
// constant-time update. Small nets skip the counter upkeep — a few-pin
// min/max scan over the flat per-cell coordinate arrays is cheaper than
// maintaining, snapshotting and restoring counters, and on an island
// grid such nets have a lone cell on most box edges anyway, which would
// degenerate the counters into rescans.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/obs"
)

// Cell is a movable object: a logic block (CLB site) or an I/O (pad site).
type Cell struct {
	Name string
	IsIO bool
}

// Net connects a set of cells; the bounding box over their locations gives
// its wirelength estimate.
type Net struct {
	Cells  []int
	Weight float64
}

// Problem is a placement instance.
type Problem struct {
	Cells []Cell
	Nets  []Net
}

// Placement assigns every cell a site.
type Placement struct {
	SiteOf []arch.Site
	Cost   float64
}

// QFactor compensates HPWL underestimation for multi-terminal nets
// (Cheng/VPR table: 1.0 up to 3 terminals, growing to 2.79 at 50).
func QFactor(terminals int) float64 {
	q := []float64{
		1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
		1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
		1.8924, 1.9288, 1.9652, 2.0015, 2.0379, 2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
		2.2334, 2.2646, 2.2958, 2.3271, 2.3583, 2.3895, 2.4187, 2.4479, 2.4772, 2.5064,
		2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410, 2.7671,
		2.7933,
	}
	if terminals < len(q) {
		return q[terminals]
	}
	return q[len(q)-1] + 0.02616*float64(terminals-len(q)+1)
}

// HPWL returns the q-corrected half-perimeter wirelength of one net under
// the location function loc.
func HPWL(cells []int, weight float64, loc func(int) (int, int)) float64 {
	if len(cells) == 0 {
		return 0
	}
	minX, minY := math.MaxInt32, math.MaxInt32
	maxX, maxY := math.MinInt32, math.MinInt32
	for _, c := range cells {
		x, y := loc(c)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return weight * QFactor(len(cells)) * float64((maxX-minX)+(maxY-minY))
}

// Options tunes the annealer.
type Options struct {
	Seed   int64
	Effort float64 // scales moves per temperature; 1.0 ≈ VPR inner_num 10
	// Init seeds the annealer with an existing placement (one site per
	// cell) instead of a random start; the schedule then opens at a
	// refinement temperature so the seed is improved, not destroyed.
	Init []arch.Site
	// RefineTempFraction scales the usual starting temperature when Init
	// is set (default 0.1).
	RefineTempFraction float64
	// WarmStart quenches Init at an even lower temperature and a tighter
	// range limit (see anneal.Config.WarmStart) — the ECO placement
	// transfer path, where Init is a baseline placement already near its
	// optimum and only the edited region should move.
	WarmStart bool
	// Starts anneals this many independently-seeded runs (Seed,
	// Seed+StartSeedStride, ...) one after another, and returns the
	// best by the deterministic (cost, seed) tiebreak. 0 or 1 is a single
	// start. Starts changes results, so it IS part of artifact keys.
	Starts int
	// Obs forwards to anneal.Config.Obs: per-run move/accept counts land
	// as mm_anneal_* metrics. Wall-clock-only, never in artifact keys.
	Obs *obs.Registry
	// Ctx forwards to anneal.Config.Ctx: a cancelled placement stops at
	// the next batch boundary and returns Ctx.Err(). Never in artifact
	// keys.
	Ctx context.Context
}

// Place runs simulated annealing and returns a legal placement.
func Place(p *Problem, a arch.Arch, opt Options) (*Placement, error) {
	if opt.Effort <= 0 {
		opt.Effort = 1.0
	}
	clbSites := a.CLBSites()
	ioSites := a.IOSites()
	nCLBCells, nIOCells := 0, 0
	for _, c := range p.Cells {
		if c.IsIO {
			nIOCells++
		} else {
			nCLBCells++
		}
	}
	if nCLBCells > len(clbSites) {
		return nil, fmt.Errorf("place: %d logic cells exceed %d CLB sites", nCLBCells, len(clbSites))
	}
	if nIOCells > len(ioSites) {
		return nil, fmt.Errorf("place: %d IO cells exceed %d pad sites", nIOCells, len(ioSites))
	}

	st, err := anneal.MultiStart(opt.Seed, opt.Starts, func(rng *rand.Rand) (*state, anneal.Config, error) {
		st, err := newState(p, clbSites, ioSites, rng, opt.Init)
		return st, anneal.Config{
			Effort:             opt.Effort,
			Span:               a.Width + a.Height,
			Cells:              len(p.Cells),
			Nets:               len(p.Nets),
			Refine:             opt.Init != nil,
			RefineTempFraction: opt.RefineTempFraction,
			WarmStart:          opt.Init != nil && opt.WarmStart,
			Obs:                opt.Obs,
			Ctx:                opt.Ctx,
		}, err
	})
	if err != nil {
		return nil, err
	}

	pl := &Placement{SiteOf: make([]arch.Site, len(p.Cells))}
	for c := range p.Cells {
		pl.SiteOf[c] = st.siteAt(st.posOf[c])
	}
	pl.Cost = st.totalCost()
	return pl, nil
}

// netBox is a net's bounding box with per-edge occupancy counters: how
// many of the net's cells sit on each extreme coordinate. A move off an
// edge with counter 1 invalidates that edge and triggers a full rescan of
// the net; every other move updates the box in O(1).
type netBox struct {
	minX, maxX, minY, maxY     int32
	nMinX, nMaxX, nMinY, nMaxY int32
}

// state holds occupancy and incremental cost bookkeeping, and implements
// anneal.Mover. Site positions are flattened: CLB sites first, then IO
// sites.
type state struct {
	p        *Problem
	clbSites []arch.Site
	ioSites  []arch.Site
	posX     []int32 // position -> site coordinates, flattened for hot scans
	posY     []int32
	cellX    []int32 // cell -> current coordinates, updated on every swap:
	cellY    []int32 // net scans read these directly, one load per axis
	posOf    []int   // cell -> position
	cellAt   []int   // position -> cell (-1 empty)
	netsOf   [][]int
	w, h     int       // CLB grid extent
	wq       []float64 // per-net weight * QFactor (constant)
	small    []bool    // per-net: few pins, rescan beats counter upkeep
	boxes    []netBox  // large nets only; small nets never store a box
	netCost  []float64
	// Swap-evaluation scratch, reused across moves: netSeen dedups the
	// affected-net list, netsBuf holds it, oldCost (parallel to netsBuf)
	// the pre-move costs Undo restores; largeBuf/oldBox snapshot the
	// boxes of affected large nets. A deterministic (insertion-ordered)
	// list matters beyond speed — summing the cost delta in map
	// iteration order would make annealing outcomes vary run to run,
	// because float addition is not associative.
	nLarge    int // number of nets above smallNetPins
	netSeen   []bool
	largeSeen []bool
	netsBuf   []int
	oldCost   []float64
	largeBuf  []int
	oldBox    []netBox
	// Pending move for anneal.Mover (set by ApplySlot, used by Undo).
	mvA, mvB int
	// Recorded batch proposals (batch.go).
	slots []slotMove
}

func newState(p *Problem, clbSites, ioSites []arch.Site, rng *rand.Rand, init []arch.Site) (*state, error) {
	st := &state{
		p:         p,
		clbSites:  clbSites,
		ioSites:   ioSites,
		posOf:     make([]int, len(p.Cells)),
		cellAt:    make([]int, len(clbSites)+len(ioSites)),
		netsOf:    make([][]int, len(p.Cells)),
		wq:        make([]float64, len(p.Nets)),
		small:     make([]bool, len(p.Nets)),
		boxes:     make([]netBox, len(p.Nets)),
		netCost:   make([]float64, len(p.Nets)),
		netSeen:   make([]bool, len(p.Nets)),
		largeSeen: make([]bool, len(p.Nets)),
	}
	st.posX = make([]int32, len(st.cellAt))
	st.posY = make([]int32, len(st.cellAt))
	for pos := range st.cellAt {
		s := st.siteAt(pos)
		st.posX[pos], st.posY[pos] = int32(s.X), int32(s.Y)
	}
	last := clbSites[len(clbSites)-1]
	st.w, st.h = last.X, last.Y
	st.cellX = make([]int32, len(p.Cells))
	st.cellY = make([]int32, len(p.Cells))
	for i := range st.cellAt {
		st.cellAt[i] = -1
	}
	if init != nil {
		if len(init) != len(p.Cells) {
			return nil, fmt.Errorf("place: init covers %d cells, want %d", len(init), len(p.Cells))
		}
		posBySite := map[arch.Site]int{}
		for i, s := range clbSites {
			posBySite[s] = i
		}
		for i, s := range ioSites {
			posBySite[s] = len(clbSites) + i
		}
		for c, s := range init {
			pos, ok := posBySite[s]
			if !ok {
				return nil, fmt.Errorf("place: init site %v not in architecture", s)
			}
			if st.cellAt[pos] >= 0 {
				return nil, fmt.Errorf("place: init places two cells on %v", s)
			}
			if p.Cells[c].IsIO != s.IsIO {
				return nil, fmt.Errorf("place: init puts cell %d on wrong site class %v", c, s)
			}
			st.place(c, pos)
		}
	} else {
		// Random legal initial placement.
		clbPerm := rng.Perm(len(clbSites))
		ioPerm := rng.Perm(len(ioSites))
		ci, ii := 0, 0
		for c := range p.Cells {
			if p.Cells[c].IsIO {
				st.place(c, len(clbSites)+ioPerm[ii])
				ii++
			} else {
				st.place(c, clbPerm[ci])
				ci++
			}
		}
	}
	for ni, n := range p.Nets {
		for _, c := range n.Cells {
			st.netsOf[c] = append(st.netsOf[c], ni)
		}
		w := n.Weight
		if w == 0 {
			w = 1
		}
		st.wq[ni] = w * QFactor(len(n.Cells))
		st.small[ni] = len(n.Cells) <= smallNetPins
		if st.small[ni] {
			st.netCost[ni] = st.scanCost(ni)
		} else {
			st.nLarge++
			st.boxes[ni] = st.computeBox(ni)
			st.netCost[ni] = st.boxCost(ni)
		}
	}
	return st, nil
}

func (st *state) place(c, pos int) {
	st.posOf[c] = pos
	st.cellAt[pos] = c
	st.cellX[c], st.cellY[c] = st.posX[pos], st.posY[pos]
}

func (st *state) siteAt(pos int) arch.Site {
	if pos < len(st.clbSites) {
		return st.clbSites[pos]
	}
	return st.ioSites[pos-len(st.clbSites)]
}

func (st *state) loc(c int) (int, int) {
	s := st.siteAt(st.posOf[c])
	return s.X, s.Y
}

// smallNetPins is the pin count below which a direct min/max rescan is
// cheaper than maintaining edge counters (VPR's SMALL_NET idea): on an
// island grid a net this size usually has a lone cell on each box edge,
// so the counter scheme degenerates into shrink-rescans anyway and only
// its bookkeeping overhead remains. Small nets therefore never store a
// box at all — their cost is recomputed by scanCost on every affected
// move — while larger nets amortise real O(1) updates.
const smallNetPins = 10

// scanCost recomputes a small net's cost with a plain min/max scan over
// its pins, reading nothing but the flat coordinate arrays.
func (st *state) scanCost(ni int) float64 {
	cells := st.p.Nets[ni].Cells
	if len(cells) == 0 {
		return 0
	}
	cellX, cellY := st.cellX, st.cellY
	c0 := cells[0]
	minX, maxX := cellX[c0], cellX[c0]
	minY, maxY := cellY[c0], cellY[c0]
	for _, c := range cells[1:] {
		x, y := cellX[c], cellY[c]
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	return st.wq[ni] * float64((maxX-minX)+(maxY-minY))
}

// computeBox scans every pin of a large net, rebuilding its box and edge
// counters — used at initialisation and as the fallback when an
// incremental update vacates a box edge. Small nets never have a box:
// their cost comes from scanCost.
func (st *state) computeBox(ni int) netBox {
	cells := st.p.Nets[ni].Cells
	if len(cells) == 0 {
		return netBox{}
	}
	var b netBox
	b.minX, b.minY = math.MaxInt32, math.MaxInt32
	b.maxX, b.maxY = math.MinInt32, math.MinInt32
	for _, c := range cells {
		xx, yy := st.cellX[c], st.cellY[c]
		switch {
		case xx < b.minX:
			b.minX, b.nMinX = xx, 1
		case xx == b.minX:
			b.nMinX++
		}
		switch {
		case xx > b.maxX:
			b.maxX, b.nMaxX = xx, 1
		case xx == b.maxX:
			b.nMaxX++
		}
		switch {
		case yy < b.minY:
			b.minY, b.nMinY = yy, 1
		case yy == b.minY:
			b.nMinY++
		}
		switch {
		case yy > b.maxY:
			b.maxY, b.nMaxY = yy, 1
		case yy == b.maxY:
			b.nMaxY++
		}
	}
	return b
}

// boxCost reads net ni's cost off its maintained bounding box.
func (st *state) boxCost(ni int) float64 {
	b := &st.boxes[ni]
	if b.nMinX == 0 {
		return 0 // empty net
	}
	return st.wq[ni] * float64((b.maxX-b.minX)+(b.maxY-b.minY))
}

// updateBox moves one of net ni's cells from (ox,oy) to (nx,ny),
// maintaining the box and its edge counters. Growth and interior moves
// are O(1); vacating an edge (its counter reaching zero) falls back to a
// computeBox rescan, which requires posOf to already hold the moved
// cell's new position.
func (st *state) updateBox(ni int, ox, oy, nx, ny int32) {
	if !boxStep(&st.boxes[ni], ox, oy, nx, ny) {
		st.boxes[ni] = st.computeBox(ni)
	}
}

// boxStep is the pure incremental half of updateBox: it applies one cell
// move to the box and reports whether the counters survived. false means
// the move vacated an edge and the caller must rescan — the live path
// recomputes from the coordinate arrays, the frozen batch evaluation
// (batch.go) from an overridden view of them. Once the X axis demands
// a rescan the Y-axis counters are left untouched (the rescan rebuilds
// everything), matching the historical updateBox short-circuit exactly.
func boxStep(b *netBox, ox, oy, nx, ny int32) bool {
	rescan := false
	if nx != ox {
		switch {
		case nx < b.minX:
			b.minX, b.nMinX = nx, 1
		case nx == b.minX:
			b.nMinX++
		}
		switch {
		case nx > b.maxX:
			b.maxX, b.nMaxX = nx, 1
		case nx == b.maxX:
			b.nMaxX++
		}
		if ox == b.minX {
			if b.nMinX > 1 {
				b.nMinX--
			} else {
				rescan = true
			}
		}
		if ox == b.maxX {
			if b.nMaxX > 1 {
				b.nMaxX--
			} else {
				rescan = true
			}
		}
	}
	if ny != oy && !rescan {
		switch {
		case ny < b.minY:
			b.minY, b.nMinY = ny, 1
		case ny == b.minY:
			b.nMinY++
		}
		switch {
		case ny > b.maxY:
			b.maxY, b.nMaxY = ny, 1
		case ny == b.maxY:
			b.nMaxY++
		}
		if oy == b.minY {
			if b.nMinY > 1 {
				b.nMinY--
			} else {
				rescan = true
			}
		}
		if oy == b.maxY {
			if b.nMaxY > 1 {
				b.nMaxY--
			} else {
				rescan = true
			}
		}
	}
	return !rescan
}

func (st *state) totalCost() float64 {
	t := 0.0
	for _, c := range st.netCost {
		t += c
	}
	return t
}

// applySwap swaps the contents of two positions (either may be empty),
// updates the boxes and netCost of the affected nets, and returns the
// cost delta. The move is left applied: an accepted move needs nothing
// further, a rejected one is reverted with undoSwap. The affected list is
// built in deterministic insertion order and allocation-free via the
// state's scratch buffers.
func (st *state) applySwap(posA, posB int) float64 {
	ca, cb := st.cellAt[posA], st.cellAt[posB]
	nets := st.netsBuf[:0]
	largeBuf := st.largeBuf[:0]
	oldBox := st.oldBox[:0]
	// Dedup the affected-net list; the netSeen marks are cleared in the
	// cost pass.
	netSeen := st.netSeen
	if ca >= 0 {
		for _, ni := range st.netsOf[ca] {
			if !netSeen[ni] {
				netSeen[ni] = true
				nets = append(nets, ni)
			}
		}
	}
	if cb >= 0 {
		for _, ni := range st.netsOf[cb] {
			if !netSeen[ni] {
				netSeen[ni] = true
				nets = append(nets, ni)
			}
		}
	}
	// Apply the move one cell at a time: a shrink rescan triggered by
	// cell A's update must see A at its new position and B still at its
	// old one. Small nets skip the counter upkeep entirely — their cost
	// is rescanned in the pass below, after both cells moved — so when
	// the state has no large net the update loops vanish. A large net
	// touched by both cells is snapshotted once (largeSeen) and updated
	// twice.
	ax, ay := st.posX[posA], st.posY[posA]
	bx, by := st.posX[posB], st.posY[posB]
	st.cellAt[posA], st.cellAt[posB] = cb, ca
	if ca >= 0 {
		st.posOf[ca] = posB
		st.cellX[ca], st.cellY[ca] = bx, by
		if st.nLarge > 0 {
			for _, ni := range st.netsOf[ca] {
				if !st.small[ni] {
					if !st.largeSeen[ni] {
						st.largeSeen[ni] = true
						largeBuf = append(largeBuf, ni)
						oldBox = append(oldBox, st.boxes[ni])
					}
					st.updateBox(ni, ax, ay, bx, by)
				}
			}
		}
	}
	if cb >= 0 {
		st.posOf[cb] = posA
		st.cellX[cb], st.cellY[cb] = ax, ay
		if st.nLarge > 0 {
			for _, ni := range st.netsOf[cb] {
				if !st.small[ni] {
					if !st.largeSeen[ni] {
						st.largeSeen[ni] = true
						largeBuf = append(largeBuf, ni)
						oldBox = append(oldBox, st.boxes[ni])
					}
					st.updateBox(ni, bx, by, ax, ay)
				}
			}
		}
	}
	for _, ni := range largeBuf {
		st.largeSeen[ni] = false
	}
	// Cost pass: snapshot the pre-move cost (for Undo) and accumulate the
	// delta in the deterministic dedup order.
	oldCost := st.oldCost[:0]
	delta := 0.0
	for _, ni := range nets {
		netSeen[ni] = false
		var nc float64
		if st.small[ni] {
			nc = st.scanCost(ni)
		} else {
			nc = st.boxCost(ni)
		}
		old := st.netCost[ni]
		oldCost = append(oldCost, old)
		delta += nc - old
		st.netCost[ni] = nc
	}
	st.netsBuf, st.oldCost = nets, oldCost
	st.largeBuf, st.oldBox = largeBuf, oldBox
	return delta
}

// undoSwap reverts the last applySwap: the swap itself, the netCost
// entries of its affected nets, and the boxes of the large ones.
func (st *state) undoSwap(posA, posB int) {
	ca, cb := st.cellAt[posA], st.cellAt[posB]
	st.cellAt[posA], st.cellAt[posB] = cb, ca
	if ca >= 0 {
		st.posOf[ca] = posB
		st.cellX[ca], st.cellY[ca] = st.posX[posB], st.posY[posB]
	}
	if cb >= 0 {
		st.posOf[cb] = posA
		st.cellX[cb], st.cellY[cb] = st.posX[posA], st.posY[posA]
	}
	for i, ni := range st.netsBuf {
		st.netCost[ni] = st.oldCost[i]
	}
	for i, ni := range st.largeBuf {
		st.boxes[ni] = st.oldBox[i]
	}
}

// Undo implements anneal.Mover.
func (st *state) Undo() { st.undoSwap(st.mvA, st.mvB) }

// Cost implements anneal.Mover.
func (st *state) Cost() float64 { return st.totalCost() }

// pickMove selects a random occupied position and a partner position of the
// same class (CLB or IO) within the range limit.
func (st *state) pickMove(rng *rand.Rand, rlim float64) (int, int, bool) {
	c := rng.Intn(len(st.p.Cells))
	posA := st.posOf[c]
	isIO := st.p.Cells[c].IsIO
	var posB int
	if isIO {
		posB = len(st.clbSites) + rng.Intn(len(st.ioSites))
	} else {
		// Range-limited CLB target.
		sa := st.siteAt(posA)
		r := int(rlim)
		if r < 1 {
			r = 1
		}
		x := anneal.Clamp(sa.X+rng.Intn(2*r+1)-r, 1, st.w)
		y := anneal.Clamp(sa.Y+rng.Intn(2*r+1)-r, 1, st.h)
		posB = (y-1)*st.w + (x - 1)
	}
	if posB == posA {
		return 0, 0, false
	}
	// Swapping with a same-class cell or empty slot only.
	if other := st.cellAt[posB]; other >= 0 && st.p.Cells[other].IsIO != isIO {
		return 0, 0, false
	}
	return posA, posB, true
}

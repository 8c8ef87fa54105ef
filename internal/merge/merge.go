// Package merge implements the key step of the paper: merging several mode
// LUT circuits into one Tunable circuit via *combined placement* — a
// simulated annealing over all modes simultaneously in which LUTs of
// different modes may share a physical logic block and a swap moves one
// mode's LUT between two sites. The annealing itself is the shared kernel
// in internal/anneal; this package supplies the multi-mode move and the
// incremental cost model. Two optimisation objectives are provided:
//
//   - circuit edge matching (prior work, Rullmann & Merker): minimise the
//     number of Tunable connections, i.e. maximise per-mode connections
//     that share (source site, sink site);
//   - wire-length optimisation (the paper's novel approach): minimise the
//     estimated wirelength of the Tunable circuit implied by the current
//     combined placement, using the same half-perimeter estimate TPlace
//     uses.
package merge

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/tunable"
)

// Objective selects the combined-placement cost function.
type Objective int

const (
	// WireLength is the paper's novel wire-length-driven objective.
	WireLength Objective = iota
	// EdgeMatch is the circuit-edge-matching objective of prior work.
	EdgeMatch
)

func (o Objective) String() string {
	if o == EdgeMatch {
		return "edge-match"
	}
	return "wire-length"
}

// Options tunes the combined placement.
type Options struct {
	Seed      int64
	Effort    float64
	Objective Objective
	// Starts anneals this many independently-seeded combined placements
	// (Seed, Seed+StartSeedStride, ...) one after another and keeps
	// the best by the deterministic (cost, seed) tiebreak. 0 or 1 is a
	// single start. Starts changes results, so it IS part of artifact
	// keys.
	Starts int
	// Init seeds each mode's placement (Init[m][cell] in the per-mode
	// cell encoding: blocks, then PIs, then POs) instead of the random
	// start, and switches the annealer to refinement. The ECO path builds
	// it by transferring a baseline combined placement through the
	// netlist diff.
	Init [][]arch.Site
	// WarmStart quenches Init at the anneal kernel's warm-start
	// temperature instead of the refinement temperature.
	WarmStart bool
	// Obs forwards to anneal.Config.Obs: per-run move/accept counts land
	// as mm_anneal_* metrics. Wall-clock-only, never in artifact keys.
	Obs *obs.Registry
	// Ctx forwards to anneal.Config.Ctx: a cancelled placement stops at
	// the next batch boundary and returns Ctx.Err(). Never in artifact
	// keys.
	Ctx context.Context
}

// Result carries the merged Tunable circuit, the grouping assignment and
// the entity placement implied by the combined placement.
type Result struct {
	Assignment *tunable.Assignment
	Tunable    *tunable.Circuit
	// LUTSite[g] is the site of Tunable LUT group g; PadSite[g] of pad
	// group g.
	LUTSite []arch.Site
	PadSite []arch.Site
	// Cost is the final combined-placement cost (objective-dependent).
	Cost float64
	// MatchedConns counts per-mode connections absorbed into shared
	// Tunable connections.
	TotalModeConns int
	TunableConns   int
}

// Per-mode cell encoding: blocks [0,B), PIs [B,B+P), POs [B+P,B+P+O).
type modeInfo struct {
	c          *lutnet.Circuit
	numBlocks  int
	numPIs     int
	numPOs     int
	sinksOf    [][]int32 // driver cell -> sink cells (dedup)
	driversFor [][]int32 // sink cell -> driver cells whose net feeds it
}

func (mi *modeInfo) numCells() int { return mi.numBlocks + mi.numPIs + mi.numPOs }

func (mi *modeInfo) isIO(cell int32) bool { return int(cell) >= mi.numBlocks }

func buildModeInfo(c *lutnet.Circuit) *modeInfo {
	mi := &modeInfo{
		c:         c,
		numBlocks: len(c.Blocks),
		numPIs:    len(c.PINames),
		numPOs:    len(c.POs),
	}
	n := mi.numCells()
	// Collect the deduplicated (driver, sink) edges once, then carve the
	// adjacency lists out of two exact-size backing arrays — hundreds of
	// append-grown slices otherwise dominate CombinedPlace's allocations.
	type edge struct{ d, s int32 }
	var edges []edge
	seen := make([]bool, n)
	var touched []int32
	for _, nt := range c.Nets() {
		var drv int32
		if nt.Src.Kind == lutnet.SrcPI {
			drv = int32(mi.numBlocks + nt.Src.Idx)
		} else {
			drv = int32(nt.Src.Idx)
		}
		for _, s := range touched {
			seen[s] = false
		}
		touched = touched[:0]
		for _, bp := range nt.BlockIn {
			s := int32(bp.Block)
			if !seen[s] {
				seen[s] = true
				touched = append(touched, s)
				edges = append(edges, edge{drv, s})
			}
		}
		for _, po := range nt.POSinks {
			s := int32(mi.numBlocks + mi.numPIs + po)
			if !seen[s] {
				seen[s] = true
				touched = append(touched, s)
				edges = append(edges, edge{drv, s})
			}
		}
	}
	sinkCnt := make([]int32, n)
	drvCnt := make([]int32, n)
	for _, e := range edges {
		sinkCnt[e.d]++
		drvCnt[e.s]++
	}
	sinkBack := make([]int32, len(edges))
	drvBack := make([]int32, len(edges))
	mi.sinksOf = make([][]int32, n)
	mi.driversFor = make([][]int32, n)
	so, do := 0, 0
	for i := 0; i < n; i++ {
		mi.sinksOf[i] = sinkBack[so : so : so+int(sinkCnt[i])]
		so += int(sinkCnt[i])
		mi.driversFor[i] = drvBack[do : do : do+int(drvCnt[i])]
		do += int(drvCnt[i])
	}
	// Appends fill the pre-carved slices in the original edge order, so
	// the adjacency ordering (and hence every downstream iteration) is
	// identical to a direct append-per-cell construction.
	for _, e := range edges {
		mi.sinksOf[e.d] = append(mi.sinksOf[e.d], e.s)
		mi.driversFor[e.s] = append(mi.driversFor[e.s], e.d)
	}
	return mi
}

// state is the combined-placement state; it implements anneal.Mover.
type state struct {
	modes    []*modeInfo
	clbSites []arch.Site
	ioSites  []arch.Site
	nPos     int
	width    int
	height   int
	// posOf[m][cell], cellAt[m][pos] (-1 empty)
	posOf  [][]int32
	cellAt [][]int32
	// cost per position (as a source site of a tunable net)
	posCost   []float64
	objective Objective
	// costAt scratch: sinkSeen dedups the sink-position set of the
	// Tunable net rooted at a position, sinkBuf holds it; both are wiped
	// via the touched list in O(touched), never by a full clear.
	sinkSeen []bool
	sinkBuf  []int32
	// Move-evaluation scratch, reused across moves: affSeen dedups the
	// affected-position list, affBuf holds it, oldCost (parallel) the
	// pre-move costs Undo restores. The list is built in deterministic
	// insertion order: summing the cost delta in map iteration order
	// would make annealing outcomes vary run to run, because float
	// addition is not associative.
	affSeen []bool
	affBuf  []int32
	oldCost []float64
	// Pending move for anneal.Mover (set by applyMove, used by Undo).
	mvMode   int
	mvA, mvB int32
	// Recorded batch proposals (batch.go).
	slots []mergeSlot
}

// newState builds the combined-placement state with a random legal
// initial placement per mode, or — when init is non-nil — the given
// per-mode placement (validated for class, occupancy and site existence).
func newState(modes []*lutnet.Circuit, a arch.Arch, obj Objective, rng *rand.Rand, init [][]arch.Site) (*state, error) {
	st := &state{
		clbSites:  a.CLBSites(),
		ioSites:   a.IOSites(),
		width:     a.Width,
		height:    a.Height,
		objective: obj,
	}
	st.nPos = len(st.clbSites) + len(st.ioSites)
	for _, c := range modes {
		mi := buildModeInfo(c)
		if mi.numBlocks > len(st.clbSites) {
			return nil, fmt.Errorf("merge: mode %q has %d blocks for %d CLB sites", c.Name, mi.numBlocks, len(st.clbSites))
		}
		if mi.numPIs+mi.numPOs > len(st.ioSites) {
			return nil, fmt.Errorf("merge: mode %q has %d IOs for %d pad sites", c.Name, mi.numPIs+mi.numPOs, len(st.ioSites))
		}
		st.modes = append(st.modes, mi)
	}

	if init != nil && len(init) != len(st.modes) {
		return nil, fmt.Errorf("merge: init covers %d modes, want %d", len(init), len(st.modes))
	}
	var posBySite map[arch.Site]int32
	if init != nil {
		posBySite = make(map[arch.Site]int32, st.nPos)
		for i, s := range st.clbSites {
			posBySite[s] = int32(i)
		}
		for i, s := range st.ioSites {
			posBySite[s] = int32(len(st.clbSites) + i)
		}
	}
	st.posOf = make([][]int32, len(st.modes))
	st.cellAt = make([][]int32, len(st.modes))
	for m, mi := range st.modes {
		st.posOf[m] = make([]int32, mi.numCells())
		st.cellAt[m] = make([]int32, st.nPos)
		for p := range st.cellAt[m] {
			st.cellAt[m][p] = -1
		}
		if init != nil {
			if len(init[m]) != mi.numCells() {
				return nil, fmt.Errorf("merge: init mode %d covers %d cells, want %d", m, len(init[m]), mi.numCells())
			}
			for c := int32(0); int(c) < mi.numCells(); c++ {
				s := init[m][c]
				pos, ok := posBySite[s]
				if !ok {
					return nil, fmt.Errorf("merge: init mode %d site %v not in architecture", m, s)
				}
				if s.IsIO != mi.isIO(c) {
					return nil, fmt.Errorf("merge: init mode %d puts cell %d on wrong site class %v", m, c, s)
				}
				if st.cellAt[m][pos] >= 0 {
					return nil, fmt.Errorf("merge: init mode %d places two cells on %v", m, s)
				}
				st.posOf[m][c] = pos
				st.cellAt[m][pos] = c
			}
			continue
		}
		clbPerm := rng.Perm(len(st.clbSites))
		ioPerm := rng.Perm(len(st.ioSites))
		for c := int32(0); int(c) < mi.numCells(); c++ {
			var pos int32
			if mi.isIO(c) {
				pos = int32(len(st.clbSites) + ioPerm[int(c)-mi.numBlocks])
			} else {
				pos = int32(clbPerm[c])
			}
			st.posOf[m][c] = pos
			st.cellAt[m][pos] = c
		}
	}
	st.sinkSeen = make([]bool, st.nPos)
	st.affSeen = make([]bool, st.nPos)
	st.posCost = make([]float64, st.nPos)
	for p := int32(0); int(p) < st.nPos; p++ {
		st.posCost[p] = st.costAt(p)
	}
	return st, nil
}

func (st *state) siteAt(pos int32) arch.Site {
	if int(pos) < len(st.clbSites) {
		return st.clbSites[pos]
	}
	return st.ioSites[int(pos)-len(st.clbSites)]
}

func (st *state) xy(pos int32) (int, int) {
	s := st.siteAt(pos)
	return s.X, s.Y
}

// costAt computes the objective contribution of position p as a source
// site: the Tunable net rooted at p spans the union of sink sites of the
// nets driven by the cells (one per mode) placed at p. The sink-position
// set is deduplicated through the state's array scratch and touched list
// — allocation-free and cleared in O(touched).
func (st *state) costAt(p int32) float64 {
	touched := st.sinkBuf[:0]
	hasDriver := false
	for m, mi := range st.modes {
		cell := st.cellAt[m][p]
		if cell < 0 || len(mi.sinksOf[cell]) == 0 {
			continue
		}
		hasDriver = true
		for _, s := range mi.sinksOf[cell] {
			sp := st.posOf[m][s]
			if !st.sinkSeen[sp] {
				st.sinkSeen[sp] = true
				touched = append(touched, sp)
			}
		}
	}
	st.sinkBuf = touched
	if !hasDriver || len(touched) == 0 {
		for _, sp := range touched {
			st.sinkSeen[sp] = false
		}
		return 0
	}
	if st.objective == EdgeMatch {
		// Number of Tunable connections rooted here.
		n := float64(len(touched))
		for _, sp := range touched {
			st.sinkSeen[sp] = false
		}
		return n
	}
	// Wire-length estimate of the Tunable net: q-corrected HPWL over the
	// union of sink sites plus the source site (same estimator as TPlace).
	minX, minY := math.MaxInt32, math.MaxInt32
	maxX, maxY := math.MinInt32, math.MinInt32
	upd := func(x, y int) {
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
	nTerm := 1
	{
		x, y := st.xy(p)
		upd(x, y)
	}
	for _, sp := range touched {
		st.sinkSeen[sp] = false
		x, y := st.xy(sp)
		upd(x, y)
		nTerm++
	}
	return place.QFactor(nTerm) * float64((maxX-minX)+(maxY-minY))
}

func (st *state) totalCost() float64 {
	t := 0.0
	for _, c := range st.posCost {
		t += c
	}
	return t
}

// affected feeds add the positions whose cost a move of cell c in mode m
// can change: the cell's own position and its drivers' positions.
func (st *state) affected(m int, c int32, add func(int32)) {
	add(st.posOf[m][c])
	for _, d := range st.modes[m].driversFor[c] {
		add(st.posOf[m][d])
	}
}

// pickMove selects a mode, one of its cells and a range-limited same-class
// target position — the proposal logic behind Propose.
func (st *state) pickMove(rng *rand.Rand, rlim float64) (m int, posA, posB int32, ok bool) {
	m = rng.Intn(len(st.modes))
	mi := st.modes[m]
	if mi.numCells() == 0 {
		return 0, 0, 0, false
	}
	c := int32(rng.Intn(mi.numCells()))
	posA = st.posOf[m][c]
	if mi.isIO(c) {
		posB = int32(len(st.clbSites) + rng.Intn(len(st.ioSites)))
	} else {
		sa := st.siteAt(posA)
		r := int(rlim)
		if r < 1 {
			r = 1
		}
		x := anneal.Clamp(sa.X+rng.Intn(2*r+1)-r, 1, st.width)
		y := anneal.Clamp(sa.Y+rng.Intn(2*r+1)-r, 1, st.height)
		posB = int32((y-1)*st.width + (x - 1))
	}
	if posB == posA {
		return 0, 0, 0, false
	}
	return m, posA, posB, true
}

// applyMove swaps the mode-m occupants of posA/posB against live state,
// updates the affected position costs, and returns the incremental delta,
// leaving the move applied for Undo.
func (st *state) applyMove(m int, posA, posB int32) float64 {
	affected := st.affBuf[:0]
	add := func(p int32) {
		if !st.affSeen[p] {
			st.affSeen[p] = true
			affected = append(affected, p)
		}
	}
	ca, cb := st.cellAt[m][posA], st.cellAt[m][posB]
	if ca >= 0 {
		st.affected(m, ca, add)
	}
	if cb >= 0 {
		st.affected(m, cb, add)
	}
	add(posA)
	add(posB)
	st.doSwap(m, posA, posB)
	delta := 0.0
	st.oldCost = st.oldCost[:0]
	for _, p := range affected {
		st.affSeen[p] = false
		st.oldCost = append(st.oldCost, st.posCost[p])
		nc := st.costAt(p)
		delta += nc - st.posCost[p]
		st.posCost[p] = nc
	}
	st.affBuf = affected
	st.mvMode, st.mvA, st.mvB = m, posA, posB
	return delta
}

// Undo implements anneal.Mover: revert the last applyMove's swap and the
// posCost entries of its affected positions.
func (st *state) Undo() {
	st.doSwap(st.mvMode, st.mvA, st.mvB)
	for i, p := range st.affBuf {
		st.posCost[p] = st.oldCost[i]
	}
}

// Cost implements anneal.Mover.
func (st *state) Cost() float64 { return st.totalCost() }

// numNets counts the cost-bearing nets across all modes (drivers with at
// least one sink), the denominator of the kernel's stop criterion.
func (st *state) numNets() int {
	n := 0
	for _, mi := range st.modes {
		for _, s := range mi.sinksOf {
			if len(s) > 0 {
				n++
			}
		}
	}
	return n
}

// CombinedPlace runs the multi-mode simulated annealing and extracts the
// resulting Tunable circuit.
func CombinedPlace(name string, modes []*lutnet.Circuit, a arch.Arch, opt Options) (*Result, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("merge: no modes")
	}
	if opt.Effort <= 0 {
		opt.Effort = 1.0
	}
	st, err := anneal.MultiStart(opt.Seed, opt.Starts, func(rng *rand.Rand) (*state, anneal.Config, error) {
		st, err := newState(modes, a, opt.Objective, rng, opt.Init)
		if err != nil {
			return nil, anneal.Config{}, err
		}
		nCells := 0
		for _, mi := range st.modes {
			nCells += mi.numCells()
		}
		return st, anneal.Config{
			Effort:    opt.Effort,
			Span:      a.Width + a.Height,
			Cells:     nCells,
			Nets:      max(st.numNets(), 1),
			Refine:    opt.Init != nil,
			WarmStart: opt.Init != nil && opt.WarmStart,
			Obs:       opt.Obs,
			Ctx:       opt.Ctx,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// The (deterministic, rng-free) pin repair runs on the winner only,
	// exactly as a single start would.
	repairPins(st, a)

	return extract(name, modes, st)
}

// ModeSites flattens the combined placement into per-mode site vectors
// in the per-mode cell encoding (blocks, then PIs, then POs): the site of
// each mode cell is the site of the group it was assigned to. This is
// the form Options.Init, place.TransferInit and FromModeSites consume.
func (r *Result) ModeSites() [][]arch.Site {
	asg := r.Assignment
	sites := make([][]arch.Site, len(asg.BlockGroup))
	for m := range sites {
		s := make([]arch.Site, 0, len(asg.BlockGroup[m])+len(asg.PIGroup[m])+len(asg.POGroup[m]))
		for _, g := range asg.BlockGroup[m] {
			s = append(s, r.LUTSite[g])
		}
		for _, g := range asg.PIGroup[m] {
			s = append(s, r.PadSite[g])
		}
		for _, g := range asg.POGroup[m] {
			s = append(s, r.PadSite[g])
		}
		sites[m] = s
	}
	return sites
}

// FromModeSites rebuilds the Result of a finished combined placement
// from its per-mode site vectors (sites[m][cell] in the per-mode cell
// encoding, as Options.Init): no anneal and no pin repair, because a
// finished placement was repaired before its sites were taken. It
// reproduces the original Result exactly when the modes have the
// original's cells and nets; their LUT contents may differ, and the
// Tunable circuit carries the given modes' contents. Sites that do not
// fit the modes or the architecture are an error.
func FromModeSites(name string, modes []*lutnet.Circuit, a arch.Arch, obj Objective, sites [][]arch.Site) (*Result, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("merge: no modes")
	}
	if sites == nil {
		return nil, fmt.Errorf("merge: no mode sites")
	}
	st, err := newState(modes, a, obj, nil, sites)
	if err != nil {
		return nil, err
	}
	return extract(name, modes, st)
}

// doSwap exchanges the mode-m occupants of posA and posB.
func (st *state) doSwap(m int, posA, posB int32) {
	ca, cb := st.cellAt[m][posA], st.cellAt[m][posB]
	st.cellAt[m][posA], st.cellAt[m][posB] = cb, ca
	if ca >= 0 {
		st.posOf[m][ca] = posB
	}
	if cb >= 0 {
		st.posOf[m][cb] = posA
	}
}

// extract converts the final combined placement into an Assignment, a
// Tunable circuit and per-group sites.
func extract(name string, modes []*lutnet.Circuit, st *state) (*Result, error) {
	asg := &tunable.Assignment{
		BlockGroup: make([][]int, len(modes)),
		PIGroup:    make([][]int, len(modes)),
		POGroup:    make([][]int, len(modes)),
	}
	groupOf := make([]int32, st.nPos) // position -> group (lut or pad), -1 unseen
	for i := range groupOf {
		groupOf[i] = -1
	}
	var lutSites, padSites []arch.Site

	lutGroup := func(pos int32) int {
		if g := groupOf[pos]; g >= 0 {
			return int(g)
		}
		g := len(lutSites)
		groupOf[pos] = int32(g)
		lutSites = append(lutSites, st.siteAt(pos))
		return g
	}
	padGroup := func(pos int32) int {
		if g := groupOf[pos]; g >= 0 {
			return int(g)
		}
		g := len(padSites)
		groupOf[pos] = int32(g)
		padSites = append(padSites, st.siteAt(pos))
		return g
	}

	for m, mi := range st.modes {
		asg.BlockGroup[m] = make([]int, mi.numBlocks)
		for b := 0; b < mi.numBlocks; b++ {
			asg.BlockGroup[m][b] = lutGroup(st.posOf[m][b])
		}
		asg.PIGroup[m] = make([]int, mi.numPIs)
		for i := 0; i < mi.numPIs; i++ {
			asg.PIGroup[m][i] = padGroup(st.posOf[m][int32(mi.numBlocks+i)])
		}
		asg.POGroup[m] = make([]int, mi.numPOs)
		for o := 0; o < mi.numPOs; o++ {
			asg.POGroup[m][o] = padGroup(st.posOf[m][int32(mi.numBlocks+mi.numPIs+o)])
		}
	}
	asg.NumLUTGroups = len(lutSites)
	asg.NumPadGroups = len(padSites)

	tc, err := tunable.Merge(name, modes, asg)
	if err != nil {
		return nil, fmt.Errorf("merge: extract: %w", err)
	}
	res := &Result{
		Assignment: asg,
		Tunable:    tc,
		LUTSite:    lutSites,
		PadSite:    padSites,
		Cost:       st.totalCost(),
	}
	stats := tc.Stats()
	res.TunableConns = stats.NumConns
	for _, n := range stats.PerModeConn {
		res.TotalModeConns += n
	}
	return res, nil
}

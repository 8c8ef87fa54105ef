package codec

import "repro/internal/lutnet"

// Structural diffing gives cells *stable identities across edits*: a cell's
// signature is derived from its function and its neighborhood (fanin cone
// plus fanout context), never from its index or insertion order, so an
// edit that inserts, deletes or reorders cells still matches everything
// outside the changed region. The delta-compile path uses the match to
// transfer baseline placements and routing onto the edited design.
//
// Signatures are computed by Weisfeiler-Lehman-style refinement: every
// node starts from a local signature (its function bits and kind; primary
// inputs hash their name, the only stable anchor an I/O has), then a fixed
// number of rounds rehash each node with its ordered fanin signatures and
// its sorted fanout signatures. sigRounds bounds the cone depth, which
// keeps the computation linear and terminates even through the sequential
// cycles that flip-flops make legal.
//
// A signature collision can only mis-seed the optimizer — every consumer
// re-validates placements and re-negotiates routing — so diff quality
// affects delta QoR and speed, never correctness.

// sigRounds is the number of refinement rounds; each round extends the
// neighborhood a signature sees by one level in both directions.
const sigRounds = 4

// Diff maps cells of a new design version onto a baseline version.
// Unchanged/Changed/Added partition the new cell indices exactly; Removed
// holds the baseline cells no new cell mapped to.
type Diff struct {
	// CellMap[n] is the baseline cell matched to new cell n, or -1.
	CellMap []int
	// Unchanged are new cells matched by structural signature.
	Unchanged []int
	// Changed are new cells matched to a leftover baseline cell by name
	// (same identity, edited function or fanin).
	Changed []int
	// Added are new cells with no baseline counterpart.
	Added []int
	// Removed are baseline cell indices no new cell matched.
	Removed []int
}

// CircuitDiff is a Diff over the blocks of two lutnet.Circuit versions,
// plus name-based primary I/O maps (new index -> old index, -1 if absent).
type CircuitDiff struct {
	Diff
	PIMap []int
	POMap []int
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// sigGraph is the index-free view both designs reduce to: an initial local
// signature per node and the ordered fanin lists.
type sigGraph struct {
	init  []uint64
	fanin [][]int32
}

// signatures runs the refinement and returns the final per-node signature.
func (g *sigGraph) signatures() []uint64 {
	n := len(g.init)
	fanout := make([][]int32, n)
	for to, ins := range g.fanin {
		for _, from := range ins {
			fanout[from] = append(fanout[from], int32(to))
		}
	}
	cur := append([]uint64(nil), g.init...)
	next := make([]uint64, n)
	var outSigs []uint64
	for round := 0; round < sigRounds; round++ {
		for i := 0; i < n; i++ {
			h := fnvMix(fnvOffset, cur[i])
			for _, in := range g.fanin[i] {
				h = fnvMix(h, cur[in])
			}
			// Fanout order is not canonical, so fold the consumer
			// signatures in sorted order.
			outSigs = outSigs[:0]
			for _, out := range fanout[i] {
				outSigs = append(outSigs, cur[out])
			}
			for a := 1; a < len(outSigs); a++ {
				for b := a; b > 0 && outSigs[b] < outSigs[b-1]; b-- {
					outSigs[b], outSigs[b-1] = outSigs[b-1], outSigs[b]
				}
			}
			for _, s := range outSigs {
				h = fnvMix(h, s)
			}
			next[i] = h
		}
		cur, next = next, cur
	}
	return cur
}

// matchCells pairs new cells with old cells: first by signature (smallest
// unused old index per signature, in new index order), then leftover new
// cells to leftover old cells by name. Both passes are deterministic and
// index-stable.
func matchCells(oldSigs, newSigs []uint64, oldName, newName func(int) string) Diff {
	d := Diff{CellMap: make([]int, len(newSigs))}
	bySig := make(map[uint64][]int, len(oldSigs))
	for i, s := range oldSigs {
		bySig[s] = append(bySig[s], i)
	}
	oldUsed := make([]bool, len(oldSigs))
	for i, s := range newSigs {
		d.CellMap[i] = -1
		if cands := bySig[s]; len(cands) > 0 {
			d.CellMap[i] = cands[0]
			oldUsed[cands[0]] = true
			bySig[s] = cands[1:]
			d.Unchanged = append(d.Unchanged, i)
		}
	}
	byName := make(map[string][]int)
	for i := range oldSigs {
		if !oldUsed[i] {
			byName[oldName(i)] = append(byName[oldName(i)], i)
		}
	}
	for i := range newSigs {
		if d.CellMap[i] >= 0 {
			continue
		}
		if cands := byName[newName(i)]; len(cands) > 0 {
			d.CellMap[i] = cands[0]
			oldUsed[cands[0]] = true
			byName[newName(i)] = cands[1:]
			d.Changed = append(d.Changed, i)
		} else {
			d.Added = append(d.Added, i)
		}
	}
	for i := range oldSigs {
		if !oldUsed[i] {
			d.Removed = append(d.Removed, i)
		}
	}
	return d
}

// circuitSigs builds the signature graph for a mapped circuit: PIs first
// (anchored by name), then blocks (anchored by LUT contents), and returns
// the final block signatures.
func circuitSigs(c *lutnet.Circuit) []uint64 {
	p := len(c.PINames)
	g := &sigGraph{
		init:  make([]uint64, p+len(c.Blocks)),
		fanin: make([][]int32, p+len(c.Blocks)),
	}
	for i, nm := range c.PINames {
		g.init[i] = fnvString(fnvMix(fnvOffset, 1), nm)
	}
	node := func(s lutnet.Source) int32 {
		if s.Kind == lutnet.SrcPI {
			return int32(s.Idx)
		}
		return int32(p + s.Idx)
	}
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		h := fnvMix(fnvOffset, 2)
		h = fnvMix(h, uint64(b.TT.NumVars))
		h = fnvMix(h, b.TT.Bits)
		if b.HasFF {
			h = fnvMix(h, 3)
			if b.Init {
				h = fnvMix(h, 4)
			}
		}
		g.init[p+bi] = h
		ins := make([]int32, len(b.Inputs))
		for pin, s := range b.Inputs {
			ins[pin] = node(s)
		}
		g.fanin[p+bi] = ins
	}
	return g.signatures()[p:]
}

// DiffCircuits matches the blocks of an edited circuit against a baseline
// version. The PI and PO maps are name-based.
func DiffCircuits(old, new *lutnet.Circuit) *CircuitDiff {
	d := &CircuitDiff{
		Diff: matchCells(circuitSigs(old), circuitSigs(new),
			func(i int) string { return old.Blocks[i].Name },
			func(i int) string { return new.Blocks[i].Name }),
		PIMap: nameMap(old.PINames, new.PINames),
	}
	oldPO := make([]string, len(old.POs))
	for i, po := range old.POs {
		oldPO[i] = po.Name
	}
	newPO := make([]string, len(new.POs))
	for i, po := range new.POs {
		newPO[i] = po.Name
	}
	d.POMap = nameMap(oldPO, newPO)
	return d
}

// nameMap maps each new name to the old index carrying the same name
// (first occurrence wins), or -1.
func nameMap(old, new []string) []int {
	idx := make(map[string]int, len(old))
	for i := len(old) - 1; i >= 0; i-- {
		idx[old[i]] = i
	}
	m := make([]int, len(new))
	for i, nm := range new {
		if j, ok := idx[nm]; ok {
			m[i] = j
		} else {
			m[i] = -1
		}
	}
	return m
}

package codec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/lutnet"
)

// randCircuit builds a seeded random acyclic LUT circuit with distinct
// block names and (with high probability) distinct functions.
func randCircuit(seed int64, pis, blocks int) *lutnet.Circuit {
	rnd := rand.New(rand.NewSource(seed))
	c := &lutnet.Circuit{Name: "rand", K: 4}
	for i := 0; i < pis; i++ {
		c.PINames = append(c.PINames, fmt.Sprintf("in%d", i))
	}
	for b := 0; b < blocks; b++ {
		nin := 2 + rnd.Intn(3)
		var ins []lutnet.Source
		for p := 0; p < nin; p++ {
			pick := rnd.Intn(pis + b)
			if pick < pis {
				ins = append(ins, lutnet.Source{Kind: lutnet.SrcPI, Idx: pick})
			} else {
				ins = append(ins, lutnet.Source{Kind: lutnet.SrcBlock, Idx: pick - pis})
			}
		}
		c.Blocks = append(c.Blocks, lutnet.Block{
			Name:   fmt.Sprintf("g%d", b),
			TT:     logic.NewTT(nin, rnd.Uint64()),
			Inputs: ins,
			HasFF:  rnd.Intn(5) == 0,
		})
	}
	for o := 0; o < 1+blocks/4; o++ {
		c.POs = append(c.POs, lutnet.PO{
			Name: fmt.Sprintf("out%d", o),
			Src:  lutnet.Source{Kind: lutnet.SrcBlock, Idx: rnd.Intn(blocks)},
		})
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// checkPartition asserts Unchanged/Changed/Added cover the new cells
// exactly once, CellMap is injective into the old cells, and Removed is
// exactly the unmatched remainder of the old cells.
func checkPartition(t *testing.T, d *Diff, oldCells, newCells int) {
	t.Helper()
	seen := make([]int, newCells)
	for _, set := range [][]int{d.Unchanged, d.Changed, d.Added} {
		for _, i := range set {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("new cell %d appears %d times across Unchanged/Changed/Added", i, n)
		}
	}
	oldSeen := make([]int, oldCells)
	matched := 0
	for i, o := range d.CellMap {
		if o < 0 {
			continue
		}
		oldSeen[o]++
		matched++
		if oldSeen[o] > 1 {
			t.Fatalf("old cell %d matched twice (second by new cell %d)", o, i)
		}
	}
	for _, o := range d.Removed {
		oldSeen[o]++
	}
	for o, n := range oldSeen {
		if n != 1 {
			t.Fatalf("old cell %d covered %d times across matches+Removed", o, n)
		}
	}
	if matched+len(d.Removed) != oldCells {
		t.Fatalf("matched %d + removed %d != old cells %d", matched, len(d.Removed), oldCells)
	}
	if len(d.Added)+matched != newCells {
		t.Fatalf("added %d + matched %d != new cells %d", len(d.Added), matched, newCells)
	}
}

func TestDiffIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := randCircuit(seed, 6, 40)
		d := DiffCircuits(c, c)
		if len(d.Unchanged) != len(c.Blocks) || len(d.Changed) != 0 || len(d.Added) != 0 || len(d.Removed) != 0 {
			t.Fatalf("seed %d: diff(x,x) not all-Unchanged: %d/%d/%d/%d",
				seed, len(d.Unchanged), len(d.Changed), len(d.Added), len(d.Removed))
		}
		checkPartition(t, &d.Diff, len(c.Blocks), len(c.Blocks))
		for i, m := range d.PIMap {
			if m != i {
				t.Fatalf("PIMap[%d]=%d", i, m)
			}
		}
		for i, m := range d.POMap {
			if m != i {
				t.Fatalf("POMap[%d]=%d", i, m)
			}
		}
	}
}

// permute returns the circuit with blocks reordered by perm (new index i
// holds old block perm[i]) and all sources remapped.
func permute(c *lutnet.Circuit, perm []int) *lutnet.Circuit {
	inv := make([]int, len(perm))
	for i, o := range perm {
		inv[o] = i
	}
	remap := func(s lutnet.Source) lutnet.Source {
		if s.Kind == lutnet.SrcBlock {
			s.Idx = inv[s.Idx]
		}
		return s
	}
	out := &lutnet.Circuit{Name: c.Name, K: c.K, PINames: append([]string(nil), c.PINames...)}
	for _, o := range perm {
		b := c.Blocks[o]
		ins := make([]lutnet.Source, len(b.Inputs))
		for p, s := range b.Inputs {
			ins[p] = remap(s)
		}
		b.Inputs = ins
		out.Blocks = append(out.Blocks, b)
	}
	for _, po := range c.POs {
		out.POs = append(out.POs, lutnet.PO{Name: po.Name, Src: remap(po.Src)})
	}
	return out
}

func TestDiffSurvivesReordering(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := randCircuit(seed, 6, 40)
		rnd := rand.New(rand.NewSource(seed + 100))
		reordered := permute(c, rnd.Perm(len(c.Blocks)))
		d := DiffCircuits(c, reordered)
		if len(d.Unchanged) != len(c.Blocks) {
			t.Fatalf("seed %d: only %d/%d blocks Unchanged after reorder", seed, len(d.Unchanged), len(c.Blocks))
		}
		checkPartition(t, &d.Diff, len(c.Blocks), len(reordered.Blocks))
		for i, o := range d.CellMap {
			if reordered.Blocks[i].TT != c.Blocks[o].TT {
				t.Fatalf("seed %d: new block %d matched old %d with different function", seed, i, o)
			}
		}
	}
}

func TestDiffEditAndPartition(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := randCircuit(seed, 6, 40)
		rnd := rand.New(rand.NewSource(seed + 200))

		// Function edit: flip one LUT's truth table. The edited block must
		// leave Unchanged (it matches by name, i.e. Changed); nothing is
		// added or removed.
		edited := permute(c, identityPerm(len(c.Blocks))) // deep copy
		bi := rnd.Intn(len(edited.Blocks))
		tt := &edited.Blocks[bi].TT
		*tt = logic.NewTT(tt.NumVars, ^tt.Bits)
		d := DiffCircuits(c, edited)
		checkPartition(t, &d.Diff, len(c.Blocks), len(edited.Blocks))
		if len(d.Added) != 0 || len(d.Removed) != 0 {
			t.Fatalf("seed %d: pure function edit reported %d added / %d removed", seed, len(d.Added), len(d.Removed))
		}
		if d.CellMap[bi] != bi {
			t.Fatalf("seed %d: edited block %d matched to %d, want name-match to itself", seed, bi, d.CellMap[bi])
		}
		for _, u := range d.Unchanged {
			if u == bi {
				t.Fatalf("seed %d: edited block %d reported Unchanged", seed, bi)
			}
		}

		// Structural edit: append two new blocks. The originals must all
		// match; exactly the new blocks are Added, nothing Removed.
		grown := permute(c, identityPerm(len(c.Blocks)))
		for k := 0; k < 2; k++ {
			grown.Blocks = append(grown.Blocks, lutnet.Block{
				Name:   fmt.Sprintf("new%d", k),
				TT:     logic.NewTT(2, rnd.Uint64()),
				Inputs: []lutnet.Source{{Kind: lutnet.SrcPI, Idx: 0}, {Kind: lutnet.SrcBlock, Idx: k}},
			})
		}
		d = DiffCircuits(c, grown)
		checkPartition(t, &d.Diff, len(c.Blocks), len(grown.Blocks))
		if len(d.Removed) != 0 {
			t.Fatalf("seed %d: grow edit removed %d", seed, len(d.Removed))
		}
		// Growing fanout perturbs signatures of the blocks the new cells
		// tap, so those may degrade to Changed — but nothing may be Added
		// beyond the two genuinely new blocks.
		if len(d.Added) != 2 {
			t.Fatalf("seed %d: grow edit added %d blocks, want 2", seed, len(d.Added))
		}

		// Shrink: diff in the other direction reports the same two blocks
		// as Removed.
		d = DiffCircuits(grown, c)
		checkPartition(t, &d.Diff, len(grown.Blocks), len(c.Blocks))
		if len(d.Removed) != 2 || len(d.Added) != 0 {
			t.Fatalf("seed %d: shrink edit %d removed / %d added, want 2/0", seed, len(d.Removed), len(d.Added))
		}
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

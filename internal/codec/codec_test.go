package codec

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/techmap"
)

// testNetlist builds a small sequential netlist with gates, latches
// (including a feedback loop) and multi-output structure.
func testNetlist(t testing.TB, seed int64, nGates int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("m%d", seed))
	sigs := b.InputVector("in", 4)
	for i := 0; i < nGates; i++ {
		x := sigs[rng.Intn(len(sigs))]
		y := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(5) {
		case 0:
			sigs = append(sigs, b.And(x, y))
		case 1:
			sigs = append(sigs, b.Or(x, y))
		case 2:
			sigs = append(sigs, b.Xor(x, y))
		case 3:
			sigs = append(sigs, b.Not(x))
		default:
			sigs = append(sigs, b.Latch(x, rng.Intn(2) == 0))
		}
	}
	for i := 0; i < 3; i++ {
		b.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
	}
	return b.N
}

func testCircuit(t testing.TB, seed int64) *lutnet.Circuit {
	t.Helper()
	c, err := techmap.Map(synth.Optimize(testNetlist(t, seed, 40)), 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNetlistRoundTrip: netlists are hashed, never decoded, so what the
// encoding must get right is identity — an independently built equal
// netlist encodes to the same bytes, and changing any field of a node or
// an output changes them.
func TestNetlistRoundTrip(t *testing.T) {
	n := testNetlist(t, 7, 50)
	data := EncodeNetlist(n)
	if !bytes.Equal(EncodeNetlist(testNetlist(t, 7, 50)), data) {
		t.Fatal("equal netlists encode differently")
	}
	nd := n.Nodes[len(n.Nodes)-1]
	for _, edit := range []struct {
		name string
		do   func()
	}{
		{"kind", func() { nd.Kind++ }},
		{"name", func() { nd.Name += "'" }},
		{"fanins", func() { nd.Fanins = append(nd.Fanins, 0) }},
		{"function", func() { nd.Func.Bits ^= 1 }},
		{"init", func() { nd.Init = !nd.Init }},
		{"output", func() { n.Outputs[0].Driver ^= 1 }},
	} {
		saved, out := *nd, n.Outputs[0]
		edit.do()
		if bytes.Equal(EncodeNetlist(n), data) {
			t.Errorf("changing the %s left the encoding unchanged", edit.name)
		}
		*nd, n.Outputs[0] = saved, out
	}
	if !bytes.Equal(EncodeNetlist(n), data) {
		t.Fatal("restoring every edit did not restore the encoding")
	}
}

// TestHashIdentity: structurally equal values hash equal regardless of
// pointer identity; any structural difference changes the hash.
func TestHashIdentity(t *testing.T) {
	a, b := testCircuit(t, 5), testCircuit(t, 5)
	if a == b {
		t.Fatal("test wants distinct pointers")
	}
	if HashCircuit(a) != HashCircuit(b) {
		t.Fatal("equal circuits behind distinct pointers hash differently")
	}
	mut := testCircuit(t, 5)
	mut.Blocks[0].TT.Bits ^= 1
	if HashCircuit(mut) == HashCircuit(a) {
		t.Fatal("flipping a truth-table bit did not change the hash")
	}
	other := testCircuit(t, 6)
	if HashCircuit(other) == HashCircuit(a) {
		t.Fatal("different circuits share a hash")
	}
}

// TestWriterDeterminism: encoding the same value twice yields identical
// bytes — the property the whole content-addressing scheme rests on.
func TestWriterDeterminism(t *testing.T) {
	n := testNetlist(t, 13, 60)
	if !bytes.Equal(EncodeNetlist(n), EncodeNetlist(n)) {
		t.Fatal("netlist encoding is not deterministic")
	}
	c := testCircuit(t, 13)
	if !bytes.Equal(EncodeCircuit(c), EncodeCircuit(c)) {
		t.Fatal("circuit encoding is not deterministic")
	}
}

// TestWriterBytes pins the exact bytes Writer emits for one of each
// primitive. Every store key and content hash is the SHA-256 of such
// bytes, so a change here moves them all.
func TestWriterBytes(t *testing.T) {
	w := NewWriter()
	w.Uvarint(0)
	w.Uvarint(1 << 62)
	w.Varint(-5)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.5)
	w.Float64(math.Copysign(0, -1))
	w.String("héllo")
	w.Ints([]int{-1, 0, 7})
	const want = "00" + // Uvarint(0)
		"808080808080808040" + // Uvarint(1 << 62)
		"09" + "54" + // Varint(-5), Int(42): zig-zag
		"01" + "00" + // Bool(true), Bool(false)
		"400c000000000000" + // Float64(3.5)
		"8000000000000000" + // Float64(-0)
		"0668c3a96c6c6f" + // String("héllo"): byte length, UTF-8
		"0301000e" // Ints: count, then zig-zag -1, 0, 7
	if got := hex.EncodeToString(w.Bytes()); got != want {
		t.Fatalf("Writer emitted %s, want %s", got, want)
	}
}

// TestContentOnly: truth-table and FF-init edits are content-only; any
// change to a name, a fan-in, a register or the cell counts is not.
func TestContentOnly(t *testing.T) {
	base := randCircuit(7, 5, 12)
	clone := func() *lutnet.Circuit { return randCircuit(7, 5, 12) }
	if !ContentOnly(base, clone()) {
		t.Fatal("identical circuit is not content-only")
	}
	content := clone()
	b := &content.Blocks[3]
	b.TT = logic.NewTT(b.TT.NumVars, b.TT.Bits^1)
	content.Blocks[5].Init = !content.Blocks[5].Init
	if HashCircuit(content) == HashCircuit(base) || !ContentOnly(base, content) {
		t.Fatal("truth-table and init edit is not a content-only change")
	}
	for name, edit := range map[string]func(c *lutnet.Circuit){
		"circuit name": func(c *lutnet.Circuit) { c.Name += "'" },
		"K":            func(c *lutnet.Circuit) { c.K++ },
		"PI name":      func(c *lutnet.Circuit) { c.PINames[0] += "'" },
		"block name":   func(c *lutnet.Circuit) { c.Blocks[2].Name += "'" },
		"FF":           func(c *lutnet.Circuit) { c.Blocks[2].HasFF = !c.Blocks[2].HasFF },
		"fan-in": func(c *lutnet.Circuit) {
			in := &c.Blocks[4].Inputs[0]
			*in = lutnet.Source{Kind: lutnet.SrcPI, Idx: (in.Idx + 1) % len(c.PINames)}
		},
		"PO source": func(c *lutnet.Circuit) { c.POs[0].Src.Idx = (c.POs[0].Src.Idx + 1) % len(c.Blocks) },
		"PO name":   func(c *lutnet.Circuit) { c.POs[0].Name += "'" },
		"added PO":  func(c *lutnet.Circuit) { c.POs = append(c.POs, c.POs[0]) },
		"removed block": func(c *lutnet.Circuit) {
			c.Blocks = c.Blocks[:len(c.Blocks)-1]
		},
	} {
		c := clone()
		edit(c)
		if ContentOnly(base, c) {
			t.Errorf("%s change counted as content-only", name)
		}
	}
}

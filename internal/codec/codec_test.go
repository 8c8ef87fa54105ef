package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/place"
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

func TestNetlistRoundTrip(t *testing.T) {
	n := testNetlist(t, 7, 50)
	data := EncodeNetlist(n)
	got, err := DecodeNetlist(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeNetlist(got), data) {
		t.Fatal("re-encoding the decoded netlist changed the bytes")
	}
	if got.Name != n.Name || len(got.Nodes) != len(n.Nodes) || len(got.Outputs) != len(n.Outputs) {
		t.Fatalf("decoded netlist shape differs: %+v vs %+v", got.Stats(), n.Stats())
	}
	for i, nd := range n.Nodes {
		g := got.Nodes[i]
		if g.Kind != nd.Kind || g.Name != nd.Name || g.Func != nd.Func || g.Init != nd.Init ||
			!reflect.DeepEqual(g.Fanins, nd.Fanins) {
			t.Fatalf("node %d differs: %+v vs %+v", i, g, nd)
		}
		if id, ok := got.NodeByName(nd.Name); !ok || id != i {
			t.Fatalf("name index not rebuilt for %q", nd.Name)
		}
	}
}

func TestCircuitRoundTrip(t *testing.T) {
	c := testCircuit(t, 3)
	data := EncodeCircuit(c)
	got, err := DecodeCircuit(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatal("decoded circuit differs from the original")
	}
	if HashCircuit(got) != HashCircuit(c) {
		t.Fatal("round trip changed the content hash")
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

func TestPlacementRoundTrip(t *testing.T) {
	c := testCircuit(t, 9)
	side := arch.MinGridForBlocks(c.NumBlocks(), c.NumPIs()+len(c.POs), 1.2)
	a := arch.New(side, side, 6)
	prob, cc := place.FromCircuit(c)
	pl, err := place.Place(prob, a, place.Options{Seed: 1, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, gotCC, err := DecodePlacement(EncodePlacement(pl, cc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pl) {
		t.Fatal("decoded placement differs")
	}
	if gotCC.NumBlk != cc.NumBlk || gotCC.NumPI != cc.NumPI || gotCC.NumPO != cc.NumPO {
		t.Fatalf("decoded cell counts differ: %+v vs %+v", gotCC, cc)
	}
}

// FuzzDecodePlacement hardens the placement decoder, which reads bytes
// from the artifact store and the remote tier: it must never panic, and
// every placement it accepts must encode to bytes that decode back to
// the same placement, cost bits included. Its seeds, under
// testdata/fuzz/FuzzDecodePlacement, are the encodings of
// TestPlacementRoundTrip's placement, of an empty placement and of
// TestVersionMismatch's future-version artifact; plain go test replays
// them. Explore further with
// go test -run '^$' -fuzz FuzzDecodePlacement ./internal/codec.
func FuzzDecodePlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, cc, err := DecodePlacement(data)
		if err != nil {
			return
		}
		got, gotCC, err := DecodePlacement(EncodePlacement(pl, cc))
		if err != nil {
			t.Fatalf("re-encoded placement does not decode: %v", err)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(pl.Cost) || !reflect.DeepEqual(got.SiteOf, pl.SiteOf) || gotCC != cc {
			t.Fatalf("placement did not round-trip: %+v %+v, then %+v %+v", pl, cc, got, gotCC)
		}
	})
}

// FuzzDecodeNetlist hardens the netlist decoder: it must never panic,
// and every netlist it accepts must encode to bytes that decode and
// re-encode to the same bytes. Its seeds, under
// testdata/fuzz/FuzzDecodeNetlist, are the encodings of a small netlist
// from testNetlist, of an empty netlist and of a future-version header;
// plain go test replays them. Explore further with
// go test -run '^$' -fuzz FuzzDecodeNetlist ./internal/codec.
func FuzzDecodeNetlist(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNetlist(data)
		if err != nil {
			return
		}
		enc := EncodeNetlist(n)
		got, err := DecodeNetlist(enc)
		if err != nil {
			t.Fatalf("re-encoded netlist does not decode: %v", err)
		}
		if again := EncodeNetlist(got); !bytes.Equal(again, enc) {
			t.Fatalf("netlist did not round-trip: %x, then %x", enc, again)
		}
	})
}

// FuzzDecodeCircuit is FuzzDecodeNetlist for the mapped-circuit decoder.
// Its seeds, under testdata/fuzz/FuzzDecodeCircuit, are the encodings of
// a small circuit from testCircuit, of an empty circuit and of a
// future-version header. Explore further with
// go test -run '^$' -fuzz FuzzDecodeCircuit ./internal/codec.
func FuzzDecodeCircuit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCircuit(data)
		if err != nil {
			return
		}
		enc := EncodeCircuit(c)
		got, err := DecodeCircuit(enc)
		if err != nil {
			t.Fatalf("re-encoded circuit does not decode: %v", err)
		}
		if again := EncodeCircuit(got); !bytes.Equal(again, enc) {
			t.Fatalf("circuit did not round-trip: %x, then %x", enc, again)
		}
	})
}

// TestDecodeRejectsCorruption: truncations and bit flips anywhere in an
// encoding must produce an error, never a silently wrong value or a
// panic. (Checksums catch storage corruption before decoding; this guards
// the decoder itself against logical corruption.)
func TestDecodeRejectsCorruption(t *testing.T) {
	c := testCircuit(t, 11)
	data := EncodeCircuit(c)
	if _, err := DecodeCircuit(data[:len(data)/2]); err == nil {
		t.Fatal("truncated circuit decoded without error")
	}
	if _, err := DecodeCircuit(nil); err == nil {
		t.Fatal("empty input decoded without error")
	}
	// Wrong kind tag: a netlist encoding is not a circuit.
	if _, err := DecodeCircuit(EncodeNetlist(testNetlist(t, 1, 10))); err == nil {
		t.Fatal("netlist bytes decoded as a circuit")
	}
	// A huge corrupt length prefix must error out, not allocate.
	w := NewWriter()
	w.Header(KindCircuit, CircuitVersion)
	w.String("x")
	w.Int(4)
	w.Uvarint(1 << 60) // PI count
	if _, err := DecodeCircuit(w.Bytes()); err == nil {
		t.Fatal("absurd length prefix decoded without error")
	}
}

// TestVersionMismatch: an artifact from another format version must be
// rejected (the store treats it as a miss and recomputes).
func TestVersionMismatch(t *testing.T) {
	w := NewWriter()
	w.Header(KindPlacement, PlacementVersion+1)
	w.Int(0)
	w.Int(0)
	w.Int(0)
	w.Float64(0)
	w.Uvarint(0)
	if _, _, err := DecodePlacement(w.Bytes()); err == nil {
		t.Fatal("future-version placement decoded without error")
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

func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Uvarint(0)
	w.Uvarint(1 << 62)
	w.Varint(-5)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.5)
	w.Float64(-0.0)
	w.String("héllo")
	w.Ints([]int{-1, 0, 7})
	r := NewReader(w.Bytes())
	if r.Uvarint() != 0 || r.Uvarint() != 1<<62 || r.Varint() != -5 || r.Int() != 42 {
		t.Fatal("integer round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if r.Float64() != 3.5 {
		t.Fatal("float round trip failed")
	}
	if f := r.Float64(); f != 0 {
		t.Fatalf("negative zero round trip failed: %v", f)
	}
	if r.String() != "héllo" {
		t.Fatal("string round trip failed")
	}
	if !reflect.DeepEqual(r.Ints(), []int{-1, 0, 7}) {
		t.Fatal("ints round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("reader finished with err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

// TestContentOnly: truth-table and FF-init edits are content-only; any
// change to a name, a fan-in, a register or the cell counts is not.
func TestContentOnly(t *testing.T) {
	base := randCircuit(7, 5, 12)
	clone := func() *lutnet.Circuit {
		c, err := DecodeCircuit(EncodeCircuit(base))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
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

package codec

import (
	"slices"

	"repro/internal/lutnet"
	"repro/internal/netlist"
)

// Encoding kinds and format versions. They only salt content hashes, so
// bumping one moves every store key derived from such a hash (see the
// package doc).
const (
	KindNetlist    = "netlist"
	KindCircuit    = "circuit"
	NetlistVersion = 1
	CircuitVersion = 1
)

// Header opens an artifact encoding with its kind tag and format version.
func (w *Writer) Header(kind string, version int) {
	w.String(kind)
	w.Int(version)
}

func encodeSource(w *Writer, s lutnet.Source) {
	w.Int(int(s.Kind))
	w.Int(s.Idx)
}

// EncodeCircuit renders the canonical encoding of a mapped LUT circuit.
func EncodeCircuit(c *lutnet.Circuit) []byte {
	w := NewWriter()
	w.Header(KindCircuit, CircuitVersion)
	w.String(c.Name)
	w.Int(c.K)
	w.Uvarint(uint64(len(c.PINames)))
	for _, nm := range c.PINames {
		w.String(nm)
	}
	w.Uvarint(uint64(len(c.Blocks)))
	for i := range c.Blocks {
		b := &c.Blocks[i]
		w.String(b.Name)
		w.Int(b.TT.NumVars)
		w.Uvarint(b.TT.Bits)
		w.Uvarint(uint64(len(b.Inputs)))
		for _, s := range b.Inputs {
			encodeSource(w, s)
		}
		w.Bool(b.HasFF)
		w.Bool(b.Init)
	}
	w.Uvarint(uint64(len(c.POs)))
	for _, po := range c.POs {
		w.String(po.Name)
		encodeSource(w, po.Src)
	}
	return w.Bytes()
}

// HashCircuit returns the content hash of a mapped circuit — the identity
// that replaces pointer equality as a cache key: structurally equal
// circuits hash identically within and across processes.
func HashCircuit(c *lutnet.Circuit) Hash { return Sum(EncodeCircuit(c)) }

// ContentOnly reports whether newC equals oldC in everything
// EncodeCircuit encodes except block truth tables and FF init values —
// an edit of LUT contents only. Such an edit keeps every cell, net and
// name at its index, so any placement or routing of oldC is one of newC;
// hash-identical circuits qualify trivially.
func ContentOnly(oldC, newC *lutnet.Circuit) bool {
	if oldC.Name != newC.Name || oldC.K != newC.K || len(oldC.Blocks) != len(newC.Blocks) ||
		!slices.Equal(oldC.PINames, newC.PINames) || !slices.Equal(oldC.POs, newC.POs) {
		return false
	}
	for i := range oldC.Blocks {
		ob, nb := &oldC.Blocks[i], &newC.Blocks[i]
		if ob.Name != nb.Name || ob.HasFF != nb.HasFF || !slices.Equal(ob.Inputs, nb.Inputs) {
			return false
		}
	}
	return true
}

// EncodeNetlist renders the canonical encoding of a gate-level netlist.
// Node IDs are positional (node i encodes at index i), which the netlist
// invariant Node.ID == index guarantees.
func EncodeNetlist(n *netlist.Netlist) []byte {
	w := NewWriter()
	w.Header(KindNetlist, NetlistVersion)
	w.String(n.Name)
	w.Uvarint(uint64(len(n.Nodes)))
	for _, nd := range n.Nodes {
		w.Int(int(nd.Kind))
		w.String(nd.Name)
		w.Ints(nd.Fanins)
		w.Int(nd.Func.NumVars)
		w.Uvarint(nd.Func.Bits)
		w.Bool(nd.Init)
	}
	w.Uvarint(uint64(len(n.Outputs)))
	for _, o := range n.Outputs {
		w.String(o.Name)
		w.Int(o.Driver)
	}
	return w.Bytes()
}

// HashNetlist returns the content hash of a netlist (mmserved keys its
// request deduplication on these, so textual BLIF variations of the same
// network collapse to one identity).
func HashNetlist(n *netlist.Netlist) Hash { return Sum(EncodeNetlist(n)) }

package codec

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/netlist"
)

// Artifact kinds and format versions. A version covers both the byte
// layout and the semantics of the algorithm producing the artifact: bump
// it when either changes, and every stale store entry of that kind
// becomes unreachable (its key hashes differently) instead of misread.
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

// Header decodes and checks an artifact header, failing the reader on a
// kind or version mismatch.
func (r *Reader) Header(kind string, version int) {
	if got := r.String(); r.err == nil && got != kind {
		r.fail("artifact kind %q, want %q", got, kind)
	}
	if got := r.Int(); r.err == nil && got != version {
		r.fail("%s format version %d, want %d", kind, got, version)
	}
}

func encodeSource(w *Writer, s lutnet.Source) {
	w.Int(int(s.Kind))
	w.Int(s.Idx)
}

func decodeSource(r *Reader) lutnet.Source {
	return lutnet.Source{Kind: lutnet.SourceKind(r.Int()), Idx: r.Int()}
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

// DecodeCircuit is the inverse of EncodeCircuit; the result is validated
// structurally before being returned.
func DecodeCircuit(data []byte) (*lutnet.Circuit, error) {
	r := NewReader(data)
	r.Header(KindCircuit, CircuitVersion)
	c := &lutnet.Circuit{Name: r.String(), K: r.Int()}
	for i, n := 0, r.Len(1); i < n; i++ {
		c.PINames = append(c.PINames, r.String())
	}
	for i, n := 0, r.Len(1); i < n; i++ {
		b := lutnet.Block{Name: r.String()}
		b.TT = logic.TT{NumVars: r.Int(), Bits: r.Uvarint()}
		for j, m := 0, r.Len(2); j < m; j++ {
			b.Inputs = append(b.Inputs, decodeSource(r))
		}
		b.HasFF = r.Bool()
		b.Init = r.Bool()
		c.Blocks = append(c.Blocks, b)
	}
	for i, n := 0, r.Len(1); i < n; i++ {
		po := lutnet.PO{Name: r.String()}
		po.Src = decodeSource(r)
		c.POs = append(c.POs, po)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("codec: decoded circuit invalid: %w", err)
	}
	return c, nil
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

// DecodeNetlist is the inverse of EncodeNetlist; the rebuilt netlist is
// validated (including acyclicity) before being returned.
func DecodeNetlist(data []byte) (*netlist.Netlist, error) {
	r := NewReader(data)
	r.Header(KindNetlist, NetlistVersion)
	name := r.String()
	nNodes := r.Len(1)
	nodes := make([]*netlist.Node, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		nd := &netlist.Node{
			ID:     i,
			Kind:   netlist.Kind(r.Int()),
			Name:   r.String(),
			Fanins: r.Ints(),
		}
		nd.Func = logic.TT{NumVars: r.Int(), Bits: r.Uvarint()}
		nd.Init = r.Bool()
		nodes = append(nodes, nd)
	}
	var outs []netlist.Output
	for i, n := 0, r.Len(1); i < n; i++ {
		outs = append(outs, netlist.Output{Name: r.String(), Driver: r.Int()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	nl, err := netlist.Reconstruct(name, nodes, outs)
	if err != nil {
		return nil, fmt.Errorf("codec: decoded netlist invalid: %w", err)
	}
	return nl, nil
}

// HashNetlist returns the content hash of a netlist (mmserved keys its
// request deduplication on these, so textual BLIF variations of the same
// network collapse to one identity).
func HashNetlist(n *netlist.Netlist) Hash { return Sum(EncodeNetlist(n)) }

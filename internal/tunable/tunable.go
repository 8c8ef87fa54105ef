// Package tunable implements the Tunable circuit of Dynamic Circuit
// Specialization applied to multi-mode circuits: Tunable LUTs whose
// configuration bits are Boolean functions of the mode word (the Fig. 4
// construction of the paper), Tunable connections annotated with
// activation functions, and the merge of several mode LUT circuits into
// one Tunable circuit given a grouping of cells onto shared entities.
package tunable

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/mode"
)

// Entity identifies a vertex of the Tunable circuit: a Tunable LUT or a
// Tunable pad.
type Entity struct {
	IsPad bool
	Idx   int
}

func (e Entity) String() string {
	if e.IsPad {
		return fmt.Sprintf("tpad%d", e.Idx)
	}
	return fmt.Sprintf("tlut%d", e.Idx)
}

// LUTContent is the realisation of one mode inside a Tunable LUT.
type LUTContent struct {
	Name   string
	TT     logic.TT
	Inputs []Entity
	HasFF  bool
	Init   bool
}

// TLUT is a Tunable LUT: one physical logic block implementing a
// (possibly different) LUT in every active mode.
type TLUT struct {
	Name    string
	PerMode []*LUTContent // indexed by mode; nil when inactive
}

// PadContent is the realisation of one mode on a Tunable pad.
type PadContent struct {
	Name    string
	IsInput bool
	Src     Entity // driver, for output pads
}

// TPad is a shared I/O pad: possibly a different primary input or output in
// every active mode.
type TPad struct {
	Name    string
	PerMode []*PadContent
}

// Conn is a Tunable connection: a (source, sink) pair annotated with the
// activation function — the set of modes in which the connection must be
// physically realised.
type Conn struct {
	Src, Dst Entity
	Act      mode.Set
}

// Circuit is a Tunable circuit over a fixed number of modes.
type Circuit struct {
	Name     string
	NumModes int
	K        int
	TLUTs    []TLUT
	TPads    []TPad
	Conns    []Conn
}

// Assignment groups the cells of every mode onto shared entities. Group
// ids 0..NumLUTGroups-1 are Tunable LUTs; NumLUTGroups..+NumPadGroups are
// Tunable pads. A group may hold at most one cell per mode.
type Assignment struct {
	NumLUTGroups int
	NumPadGroups int
	// BlockGroup[m][b] is the LUT group of block b of mode m.
	BlockGroup [][]int
	// PIGroup[m][i] and POGroup[m][o] are pad groups (offset by
	// NumLUTGroups already removed: they index pad groups directly).
	PIGroup [][]int
	POGroup [][]int
}

// Identity builds the naive assignment of the paper's Fig. 3: block i of
// every mode shares Tunable LUT i, PI i shares pad i, PO o shares pad
// NumPIs_max + o.
func Identity(modes []*lutnet.Circuit) *Assignment {
	a := &Assignment{
		BlockGroup: make([][]int, len(modes)),
		PIGroup:    make([][]int, len(modes)),
		POGroup:    make([][]int, len(modes)),
	}
	maxPI := 0
	for m, c := range modes {
		a.BlockGroup[m] = make([]int, len(c.Blocks))
		for b := range c.Blocks {
			a.BlockGroup[m][b] = b
			if b+1 > a.NumLUTGroups {
				a.NumLUTGroups = b + 1
			}
		}
		if len(c.PINames) > maxPI {
			maxPI = len(c.PINames)
		}
	}
	for m, c := range modes {
		a.PIGroup[m] = make([]int, len(c.PINames))
		for i := range c.PINames {
			a.PIGroup[m][i] = i
		}
		a.POGroup[m] = make([]int, len(c.POs))
		for o := range c.POs {
			a.POGroup[m][o] = maxPI + o
			if maxPI+o+1 > a.NumPadGroups {
				a.NumPadGroups = maxPI + o + 1
			}
		}
	}
	if maxPI > a.NumPadGroups {
		a.NumPadGroups = maxPI
	}
	return a
}

// Merge builds the Tunable circuit implied by grouping the cells of the
// mode circuits according to the assignment: grouped LUTs become one
// Tunable LUT; connections with the same source and sink entity merge into
// one Tunable connection whose activation function is the union (Boolean
// sum) of the per-mode products.
func Merge(name string, modes []*lutnet.Circuit, asg *Assignment) (*Circuit, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("tunable: no modes")
	}
	if len(modes) > mode.MaxModes {
		return nil, fmt.Errorf("tunable: %d modes exceed max %d", len(modes), mode.MaxModes)
	}
	k := modes[0].K
	for _, c := range modes {
		if c.K != k {
			return nil, fmt.Errorf("tunable: inconsistent K (%d vs %d)", c.K, k)
		}
	}
	tc := &Circuit{Name: name, NumModes: len(modes), K: k}
	tc.TLUTs = make([]TLUT, asg.NumLUTGroups)
	tc.TPads = make([]TPad, asg.NumPadGroups)
	for i := range tc.TLUTs {
		tc.TLUTs[i].Name = fmt.Sprintf("tlut%d", i)
		tc.TLUTs[i].PerMode = make([]*LUTContent, len(modes))
	}
	for i := range tc.TPads {
		tc.TPads[i].Name = fmt.Sprintf("tpad%d", i)
		tc.TPads[i].PerMode = make([]*PadContent, len(modes))
	}

	entityOfSource := func(m int, s lutnet.Source) (Entity, error) {
		if s.Kind == lutnet.SrcPI {
			if s.Idx >= len(asg.PIGroup[m]) {
				return Entity{}, fmt.Errorf("tunable: mode %d PI %d unassigned", m, s.Idx)
			}
			return Entity{IsPad: true, Idx: asg.PIGroup[m][s.Idx]}, nil
		}
		if s.Idx >= len(asg.BlockGroup[m]) {
			return Entity{}, fmt.Errorf("tunable: mode %d block %d unassigned", m, s.Idx)
		}
		return Entity{Idx: asg.BlockGroup[m][s.Idx]}, nil
	}

	// Fill per-mode contents, checking one-cell-per-mode-per-group.
	for m, c := range modes {
		if len(asg.BlockGroup[m]) != len(c.Blocks) || len(asg.PIGroup[m]) != len(c.PINames) || len(asg.POGroup[m]) != len(c.POs) {
			return nil, fmt.Errorf("tunable: assignment shape mismatch for mode %d", m)
		}
		for b := range c.Blocks {
			grp := asg.BlockGroup[m][b]
			if grp < 0 || grp >= asg.NumLUTGroups {
				return nil, fmt.Errorf("tunable: mode %d block %d: bad group %d", m, b, grp)
			}
			if tc.TLUTs[grp].PerMode[m] != nil {
				return nil, fmt.Errorf("tunable: group %d holds two LUTs of mode %d", grp, m)
			}
			blk := &c.Blocks[b]
			content := &LUTContent{Name: blk.Name, TT: blk.TT, HasFF: blk.HasFF, Init: blk.Init}
			content.Inputs = make([]Entity, len(blk.Inputs))
			for pin, s := range blk.Inputs {
				e, err := entityOfSource(m, s)
				if err != nil {
					return nil, err
				}
				content.Inputs[pin] = e
			}
			tc.TLUTs[grp].PerMode[m] = content
		}
		for i, nm := range c.PINames {
			grp := asg.PIGroup[m][i]
			if grp < 0 || grp >= asg.NumPadGroups {
				return nil, fmt.Errorf("tunable: mode %d PI %d: bad pad group %d", m, i, grp)
			}
			if tc.TPads[grp].PerMode[m] != nil {
				return nil, fmt.Errorf("tunable: pad group %d holds two pads of mode %d", grp, m)
			}
			tc.TPads[grp].PerMode[m] = &PadContent{Name: nm, IsInput: true}
		}
		for o, po := range c.POs {
			grp := asg.POGroup[m][o]
			if grp < 0 || grp >= asg.NumPadGroups {
				return nil, fmt.Errorf("tunable: mode %d PO %d: bad pad group %d", m, o, grp)
			}
			if tc.TPads[grp].PerMode[m] != nil {
				return nil, fmt.Errorf("tunable: pad group %d holds two pads of mode %d", grp, m)
			}
			src, err := entityOfSource(m, po.Src)
			if err != nil {
				return nil, err
			}
			tc.TPads[grp].PerMode[m] = &PadContent{Name: po.Name, Src: src}
		}
	}

	// Tunable connections: merge per-mode connections by (src, dst).
	type key struct{ src, dst Entity }
	acc := map[key]mode.Set{}
	var order []key
	add := func(src, dst Entity, m int) {
		k := key{src, dst}
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] = acc[k].With(m)
	}
	for m, c := range modes {
		for b := range c.Blocks {
			dst := Entity{Idx: asg.BlockGroup[m][b]}
			for _, s := range c.Blocks[b].Inputs {
				src, err := entityOfSource(m, s)
				if err != nil {
					return nil, err
				}
				add(src, dst, m)
			}
		}
		for o, po := range c.POs {
			dst := Entity{IsPad: true, Idx: asg.POGroup[m][o]}
			src, err := entityOfSource(m, po.Src)
			if err != nil {
				return nil, err
			}
			add(src, dst, m)
		}
	}
	tc.Conns = make([]Conn, 0, len(order))
	for _, k := range order {
		tc.Conns = append(tc.Conns, Conn{Src: k.src, Dst: k.dst, Act: acc[k]})
	}
	return tc, nil
}

// Stats summarises merge quality.
type Stats struct {
	NumTLUTs    int
	NumTPads    int
	NumConns    int // Tunable connections after merging
	SharedConns int // activation == all modes: never reconfigured
	PerModeConn []int
}

// Stats computes merge statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{NumTLUTs: len(c.TLUTs), NumTPads: len(c.TPads), NumConns: len(c.Conns)}
	s.PerModeConn = make([]int, c.NumModes)
	all := mode.All(c.NumModes)
	for _, cn := range c.Conns {
		if cn.Act == all {
			s.SharedConns++
		}
		for m := 0; m < c.NumModes; m++ {
			if cn.Act.Contains(m) {
				s.PerModeConn[m]++
			}
		}
	}
	return s
}

// TLUTBits computes the parameterised configuration bits of Tunable LUT t
// following the paper's Fig. 4: for every physical truth-table bit
// position, the set of modes in which the bit is 1 (each mode's LUT
// content is ANDed with its mode product and the results are ORed). The
// last entry (index 2^K) is the FF-select bit.
func (c *Circuit) TLUTBits(t int) []mode.Set {
	bits := make([]mode.Set, 1<<uint(c.K)+1)
	tl := &c.TLUTs[t]
	for m, content := range tl.PerMode {
		if content == nil {
			continue
		}
		// Expand the content function to the physical K inputs: content
		// pin i sits on physical pin i; unused upper pins are don't care
		// (their truth-table copies repeat the function).
		varMap := make([]int, content.TT.NumVars)
		for i := range varMap {
			varMap[i] = i
		}
		full := content.TT.Expand(c.K, varMap)
		for b := 0; b < 1<<uint(c.K); b++ {
			if full.Get(b) {
				bits[b] = bits[b].With(m)
			}
		}
		if content.HasFF {
			bits[1<<uint(c.K)] = bits[1<<uint(c.K)].With(m)
		}
	}
	return bits
}

// ExtractMode reconstructs the LUT circuit of one mode from the Tunable
// circuit — the inverse of Merge, used for verification: evaluating all
// parameterised bits for a mode value must reproduce that mode's circuit.
func (c *Circuit) ExtractMode(m int) (*lutnet.Circuit, error) {
	if m < 0 || m >= c.NumModes {
		return nil, fmt.Errorf("tunable: mode %d out of range", m)
	}
	out := &lutnet.Circuit{Name: fmt.Sprintf("%s.mode%d", c.Name, m), K: c.K}
	blockIdx := map[int]int{} // TLUT index -> block index
	piIdx := map[int]int{}    // TPad index -> PI index
	for t := range c.TLUTs {
		if c.TLUTs[t].PerMode[m] != nil {
			blockIdx[t] = len(blockIdx)
		}
	}
	for p := range c.TPads {
		pc := c.TPads[p].PerMode[m]
		if pc != nil && pc.IsInput {
			piIdx[p] = len(out.PINames)
			out.PINames = append(out.PINames, pc.Name)
		}
	}
	srcOf := func(e Entity) (lutnet.Source, error) {
		if e.IsPad {
			i, ok := piIdx[e.Idx]
			if !ok {
				return lutnet.Source{}, fmt.Errorf("tunable: mode %d reads inactive pad %d", m, e.Idx)
			}
			return lutnet.Source{Kind: lutnet.SrcPI, Idx: i}, nil
		}
		i, ok := blockIdx[e.Idx]
		if !ok {
			return lutnet.Source{}, fmt.Errorf("tunable: mode %d reads inactive TLUT %d", m, e.Idx)
		}
		return lutnet.Source{Kind: lutnet.SrcBlock, Idx: i}, nil
	}
	out.Blocks = make([]lutnet.Block, len(blockIdx))
	for t := range c.TLUTs {
		content := c.TLUTs[t].PerMode[m]
		if content == nil {
			continue
		}
		blk := lutnet.Block{Name: content.Name, TT: content.TT, HasFF: content.HasFF, Init: content.Init}
		blk.Inputs = make([]lutnet.Source, len(content.Inputs))
		for pin, e := range content.Inputs {
			s, err := srcOf(e)
			if err != nil {
				return nil, err
			}
			blk.Inputs[pin] = s
		}
		out.Blocks[blockIdx[t]] = blk
	}
	for p := range c.TPads {
		pc := c.TPads[p].PerMode[m]
		if pc == nil || pc.IsInput {
			continue
		}
		s, err := srcOf(pc.Src)
		if err != nil {
			return nil, err
		}
		out.POs = append(out.POs, lutnet.PO{Name: pc.Name, Src: s})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("tunable: extracted mode %d invalid: %w", m, err)
	}
	return out, nil
}

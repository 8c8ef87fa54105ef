package main

import (
	"fmt"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/gen/firgen"
	"repro/internal/gen/mcncgen"
	"repro/internal/gen/regexgen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// The corpus is the fixed set of inputs the workloads run. It is drawn
// from a constant seed, not from the run seed: one group's cold compile
// time moves by up to 5x with nothing but the flow's annealing seed
// changed (0.6-3.1 s for one RegExp pair on a 2-core box), because the
// channel-widening loop runs TRoute anywhere from 2 to 7 times. No run of
// tens of seconds averages that out, so every run compiles the same groups
// and the run seed only orders them.
const corpusSeed = 1

// families are the paper's three workload suites (Table I).
var families = []string{"RegExp", "FIR", "MCNC"}

// size selects generator knobs: full for the compile workloads, small for
// the warm-serve identities (whose cold compiles are only set-up), toy for
// the smoke test.
type size int

const (
	full size = iota
	small
	toy
)

// group is one multi-mode compile input: the modes implemented together.
type group struct {
	Name   string
	Family string
	Modes  []*netlist.Netlist
}

// edit is one ECO change: one truth-table row of one gate flipped in one
// mode of a baseline group.
type edit struct {
	Name     string
	Baseline int // index into the baseline groups
	Group    group
}

// shape is how many inputs of each kind a corpus holds.
type shape struct {
	coldPerFamily, editsPerFamily, serve int
}

var shapes = map[size]shape{
	full: {coldPerFamily: 2, editsPerFamily: 2, serve: 8},
	toy:  {coldPerFamily: 1, editsPerFamily: 1, serve: 2},
}

// regexTemplates are quarter-length variants of the payload signatures of
// regexgen.BleedingEdgeRules: the same structure (literal commands, filler
// classes with a repetition floor, alternatives), with the repetition
// floors drawn so one engine maps to about 40-80 4-LUTs.
var regexTemplates = []func(*rand.Rand) string{
	func(r *rand.Rand) string {
		return fmt.Sprintf(`GET /(phf|test-cgi)\?[\w%%/\.\-]{%d,}`, 3+r.Intn(4))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`\x90{%d,}\xe8[\x00-\xff]{2}(/bin/sh|cmd)`, 5+r.Intn(4))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`(USER|PASS) [\w\.\-]{%d,}\r\n`, 5+r.Intn(4))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`(PRIVMSG|NOTICE) #[\w\-]{4,%d} :!(exec|ddos)`, 5+r.Intn(3))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`(MAIL FROM|RCPT TO):<[\w\.]{4,%d}@\w{2,4}\.com>`, 5+r.Intn(3))
	},
}

func regexMode(r *rand.Rand, name string, sz size) (*netlist.Netlist, error) {
	pattern := regexTemplates[r.Intn(len(regexTemplates))](r)
	if sz == toy {
		pattern = fmt.Sprintf(`(GET|PUT) /[a-z]{%d,}`, 2+r.Intn(3))
	}
	return regexgen.Generate(name, pattern, regexgen.Options{})
}

func firMode(r *rand.Rand, name string, kind firgen.Kind, sz size) (*netlist.Netlist, error) {
	s := firgen.Spec{Kind: kind, Taps: 8, NonZero: 3, Cutoff: 0.15 + 0.2*r.Float64(), CoeffBits: 4, InputBits: 4, Seed: r.Int63()}
	switch sz {
	case small:
		s.Taps, s.NonZero, s.CoeffBits, s.InputBits = 6, 2, 4, 4
	case toy:
		s.Taps, s.NonZero, s.CoeffBits, s.InputBits = 3, 2, 3, 3
	}
	return firgen.Generate(name, s, firgen.Design(s))
}

func mcncMode(r *rand.Rand, name string, sz size) (*netlist.Netlist, error) {
	s := mcncgen.Spec{
		Name: name, PIs: 10 + r.Intn(5), POs: 6 + r.Intn(4), Gates: 90 + r.Intn(20),
		Levels: 6, Clusters: 3, LatchFrac: 0.1 + 0.1*r.Float64(), Seed: r.Int63(),
	}
	switch sz {
	case small:
		s.Gates /= 2
	case toy:
		s.PIs, s.POs, s.Gates, s.Levels, s.Clusters = 6, 3, 24, 3, 2
	}
	n, err := mcncgen.Generate(s)
	if err != nil {
		return nil, err
	}
	// A configuration carries no flip-flop initial state (bitstream.Decode
	// starts every FF at 0), so the oracle can only compare a decoded
	// implementation against a source whose latches also start at 0.
	for _, nd := range n.Nodes {
		if nd.Kind == netlist.KindLatch {
			nd.Init = false
		}
	}
	return n, nil
}

// newGroup draws one two-mode group of a family. FIR groups pair a
// low-pass with a high-pass filter, the paper's adaptive-filter use case.
func newGroup(r *rand.Rand, family, name string, sz size) (group, error) {
	g := group{Name: name, Family: family}
	for m := 0; m < 2; m++ {
		mname := fmt.Sprintf("%s-m%d", name, m)
		var n *netlist.Netlist
		var err error
		switch family {
		case "RegExp":
			n, err = regexMode(r, mname, sz)
		case "FIR":
			n, err = firMode(r, mname, firgen.Kind(m), sz)
		case "MCNC":
			n, err = mcncMode(r, mname, sz)
		}
		if err != nil {
			return g, fmt.Errorf("corpus %s: %w", mname, err)
		}
		g.Modes = append(g.Modes, n)
	}
	return g, nil
}

// familyGroups draws the first n groups of a family's corpus stream.
func familyGroups(fi, n int, sz size) ([]group, error) {
	r := rand.New(rand.NewSource(corpusSeed*1000 + int64(fi)))
	var out []group
	for i := 0; i < n; i++ {
		g, err := newGroup(r, families[fi], fmt.Sprintf("%s-%d", families[fi], i), sz)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// coldGroups are the cold-compile inputs: the first groups of every
// family.
func coldGroups(sz size) ([]group, error) {
	var out []group
	for fi := range families {
		gs, err := familyGroups(fi, shapes[sz].coldPerFamily, sz)
		if err != nil {
			return nil, err
		}
		out = append(out, gs...)
	}
	return out, nil
}

// deltaSet is the delta-eco input: each family's first cold-compile group
// as a baseline, and edits of it.
func deltaSet(sz size) ([]group, []edit, error) {
	var baselines []group
	var edits []edit
	for fi := range families {
		gs, err := familyGroups(fi, 1, sz)
		if err != nil {
			return nil, nil, err
		}
		r := rand.New(rand.NewSource(corpusSeed*1000 + 100 + int64(fi)))
		es, err := drawEdits(r, gs[0], fi, shapes[sz].editsPerFamily)
		if err != nil {
			return nil, nil, err
		}
		baselines = append(baselines, gs[0])
		edits = append(edits, es...)
	}
	return baselines, edits, nil
}

// serveGroups are the warm-serve request identities, drawn round-robin
// over the families at the small size.
func serveGroups(sz size) ([]group, error) {
	gsz := sz
	if sz == full {
		gsz = small
	}
	r := rand.New(rand.NewSource(corpusSeed*1000 + 999))
	var out []group
	for i := 0; i < shapes[sz].serve; i++ {
		fam := families[i%len(families)]
		g, err := newGroup(r, fam, fmt.Sprintf("serve-%s-%d", fam, i), gsz)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// drawEdits draws n distinct one-row edits of a baseline group. An edit
// that does not survive synthesis and mapping (the mapped circuit's hash
// is unchanged, so there is nothing for a delta compile to do) is
// redrawn.
func drawEdits(r *rand.Rand, base group, baseIdx, n int) ([]edit, error) {
	mapped, err := flow.MapModes(base.Modes, flow.Config{})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []edit
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("corpus: no mapping-visible edit of %s", base.Name)
		}
		m := r.Intn(len(base.Modes))
		src := base.Modes[m]
		var gates []int
		for _, nd := range src.Nodes {
			if nd.Kind == netlist.KindGate && nd.Func.NumVars > 0 {
				gates = append(gates, nd.ID)
			}
		}
		id := gates[r.Intn(len(gates))]
		row := r.Intn(1 << src.Nodes[id].Func.NumVars)
		name := fmt.Sprintf("%s/m%d/%s/row%d", base.Name, m, src.Nodes[id].Name, row)
		if seen[name] {
			continue
		}
		seen[name] = true
		edited, err := flipRow(src, id, row)
		if err != nil {
			return nil, err
		}
		em, err := flow.MapModes([]*netlist.Netlist{edited}, flow.Config{})
		if err != nil {
			return nil, err
		}
		if codec.HashCircuit(em[0]) == codec.HashCircuit(mapped[m]) {
			continue
		}
		g := group{Name: name, Family: base.Family, Modes: append([]*netlist.Netlist(nil), base.Modes...)}
		g.Modes[m] = edited
		out = append(out, edit{Name: name, Baseline: baseIdx, Group: g})
	}
	return out, nil
}

// flipRow returns a copy of n with row `row` of gate id's truth table
// inverted.
func flipRow(n *netlist.Netlist, id, row int) (*netlist.Netlist, error) {
	nodes := make([]*netlist.Node, len(n.Nodes))
	for i, nd := range n.Nodes {
		cp := *nd
		cp.Fanins = append([]int(nil), nd.Fanins...)
		nodes[i] = &cp
	}
	f := nodes[id].Func
	nodes[id].Func = logic.NewTT(f.NumVars, f.Bits^(1<<uint(row)))
	return netlist.Reconstruct(n.Name, nodes, append([]netlist.Output(nil), n.Outputs...))
}

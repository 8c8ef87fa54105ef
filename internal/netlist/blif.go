package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/logic"
)

// WriteBLIF serialises the netlist in the Berkeley Logic Interchange Format
// (.model/.inputs/.outputs/.names/.latch/.end), the standard academic
// exchange format used by the MCNC benchmarks and VPR-era tool flows.
func WriteBLIF(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)

	fmt.Fprint(bw, ".inputs")
	for _, nd := range n.Nodes {
		if nd.Kind == KindInput {
			fmt.Fprintf(bw, " %s", nd.Name)
		}
	}
	fmt.Fprintln(bw)

	fmt.Fprint(bw, ".outputs")
	for _, o := range n.Outputs {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)

	// Output drivers may need aliasing when an output name differs from the
	// driving node's name; emit identity .names for those.
	sig := func(id int) string { return n.Nodes[id].Name }

	for _, nd := range n.Nodes {
		switch nd.Kind {
		case KindLatch:
			init := 0
			if nd.Init {
				init = 1
			}
			fmt.Fprintf(bw, ".latch %s %s re clk %d\n", sig(nd.Fanins[0]), nd.Name, init)
		case KindGate:
			fmt.Fprint(bw, ".names")
			for _, f := range nd.Fanins {
				fmt.Fprintf(bw, " %s", sig(f))
			}
			fmt.Fprintf(bw, " %s\n", nd.Name)
			writeCover(bw, nd.Func)
		}
	}
	for _, o := range n.Outputs {
		if sig(o.Driver) != o.Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", sig(o.Driver), o.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// writeCover emits the on-set cover of fn as BLIF plane rows.
func writeCover(w io.Writer, fn logic.TT) {
	if fn.NumVars == 0 {
		if fn.IsConst1() {
			fmt.Fprintln(w, "1")
		}
		// const0: empty cover.
		return
	}
	sop := logic.Minimize(fn)
	for _, c := range sop.Cubes {
		var sb strings.Builder
		for v := 0; v < fn.NumVars; v++ {
			switch {
			case c.Mask>>uint(v)&1 == 0:
				sb.WriteByte('-')
			case c.Value>>uint(v)&1 == 1:
				sb.WriteByte('1')
			default:
				sb.WriteByte('0')
			}
		}
		fmt.Fprintf(w, "%s 1\n", sb.String())
	}
}

// maxBLIFLine bounds one physical BLIF line, so that input without line
// breaks cannot grow the read buffer without bound.
const maxBLIFLine = 1 << 20

// ReadBLIF parses a single-model BLIF description. Supported constructs:
// .model, .inputs, .outputs, .names (on-set and off-set covers), .latch,
// .end, comments (#) and line continuations (\). Unsupported directives
// return an error.
func ReadBLIF(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows with the longest line, up to the
	// 1 MiB line limit: allocating the limit up front cost every parse a
	// zeroed 1 MiB, most of a small mode's parse time.
	sc.Buffer(nil, maxBLIFLine)

	var lines []string
	var cont strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cont.WriteString(strings.TrimSuffix(line, "\\"))
			cont.WriteByte(' ')
			continue
		}
		cont.WriteString(line)
		lines = append(lines, cont.String())
		cont.Reset()
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}

	type rawGate struct {
		ins   []string
		out   string
		cover [][2]string // pattern, value
	}
	type rawLatch struct {
		in, out string
		init    bool
	}
	var (
		modelName string
		inputs    []string
		outputs   []string
		gates     []*rawGate
		latches   []rawLatch
	)
	var curGate *rawGate
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				modelName = fields[1]
			}
			curGate = nil
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			curGate = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			curGate = nil
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: .names with no signals")
			}
			g := &rawGate{ins: fields[1 : len(fields)-1], out: fields[len(fields)-1]}
			gates = append(gates, g)
			curGate = g
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .latch %q", line)
			}
			l := rawLatch{in: fields[1], out: fields[2]}
			last := fields[len(fields)-1]
			if last == "1" {
				l.init = true
			}
			latches = append(latches, l)
			curGate = nil
		case ".end":
			curGate = nil
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("blif: unsupported directive %q", fields[0])
			}
			if curGate == nil {
				return nil, fmt.Errorf("blif: cover row outside .names: %q", line)
			}
			switch len(fields) {
			case 1: // zero-input constant cover
				curGate.cover = append(curGate.cover, [2]string{"", fields[0]})
			case 2:
				curGate.cover = append(curGate.cover, [2]string{fields[0], fields[1]})
			default:
				return nil, fmt.Errorf("blif: malformed cover row %q", line)
			}
		}
	}

	n := New(modelName)
	ids := map[string]int{}
	for _, in := range inputs {
		ids[in] = n.AddInput(in)
	}

	// Latch outputs act like state inputs for ordering purposes; create the
	// latch nodes after everything else but pre-reserve their names by
	// resolving signals lazily. We build gates in dependency order using
	// iterative resolution.
	producedBy := map[string]int{} // signal -> gate index
	for i, g := range gates {
		producedBy[g.out] = i
	}
	// Placeholder latch nodes first (their fanin is patched later) so gates
	// can reference latch Q signals.
	latchIDs := make([]int, len(latches))
	for i, l := range latches {
		// Temporary fanin: itself is not possible; use a dummy that we patch.
		latchIDs[i] = n.addNode(&Node{Kind: KindLatch, Name: l.out, Fanins: []int{0}, Init: l.init})
		ids[l.out] = latchIDs[i]
	}

	built := make([]bool, len(gates))
	var buildGate func(i int) error
	buildGate = func(i int) error {
		if built[i] {
			return nil
		}
		built[i] = true // set early; cycles through latches are fine, pure gate cycles will fail Validate
		g := gates[i]
		for _, in := range g.ins {
			if _, ok := ids[in]; !ok {
				j, isGate := producedBy[in]
				if !isGate {
					return fmt.Errorf("blif: undriven signal %q", in)
				}
				if err := buildGate(j); err != nil {
					return err
				}
				if _, ok := ids[in]; !ok {
					return fmt.Errorf("blif: combinational cycle through signal %q", in)
				}
			}
		}
		fn, err := coverToTT(len(g.ins), g.cover)
		if err != nil {
			return fmt.Errorf("blif: gate %q: %w", g.out, err)
		}
		fanins := make([]int, len(g.ins))
		for k, in := range g.ins {
			fanins[k] = ids[in]
		}
		ids[g.out] = n.AddGate(g.out, fn, fanins...)
		return nil
	}
	for i := range gates {
		if err := buildGate(i); err != nil {
			return nil, err
		}
	}
	// Patch latch fanins.
	for i, l := range latches {
		id, ok := ids[l.in]
		if !ok {
			return nil, fmt.Errorf("blif: latch %q: undriven data signal %q", l.out, l.in)
		}
		n.Nodes[latchIDs[i]].Fanins[0] = id
	}
	for _, o := range outputs {
		id, ok := ids[o]
		if !ok {
			return nil, fmt.Errorf("blif: undriven output %q", o)
		}
		n.AddOutput(o, id)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("blif: invalid netlist: %w", err)
	}
	return n, nil
}

// coverToTT converts a BLIF cover to a truth table. All rows must agree on
// the output value (single-output on-set or off-set cover).
func coverToTT(numIns int, cover [][2]string) (logic.TT, error) {
	if numIns > logic.MaxVars {
		return logic.TT{}, fmt.Errorf("%d inputs exceed max %d", numIns, logic.MaxVars)
	}
	if len(cover) == 0 {
		return logic.ConstTT(numIns, false), nil
	}
	onSet := cover[0][1] == "1"
	acc := logic.ConstTT(numIns, false)
	for _, row := range cover {
		pat, val := row[0], row[1]
		if (val == "1") != onSet {
			return logic.TT{}, fmt.Errorf("mixed on/off-set cover")
		}
		if len(pat) != numIns {
			return logic.TT{}, fmt.Errorf("cover row %q has %d columns, want %d", pat, len(pat), numIns)
		}
		cube := logic.ConstTT(numIns, true)
		for v := 0; v < numIns; v++ {
			switch pat[v] {
			case '1':
				cube = cube.And(logic.VarTT(numIns, v))
			case '0':
				cube = cube.And(logic.VarTT(numIns, v).Not())
			case '-':
			default:
				return logic.TT{}, fmt.Errorf("bad cover char %q", pat[v])
			}
		}
		acc = acc.Or(cube)
	}
	if !onSet {
		acc = acc.Not()
	}
	return acc, nil
}

// SignalNames returns all node names sorted, primarily for tests.
func (n *Netlist) SignalNames() []string {
	names := make([]string, 0, len(n.Nodes))
	for _, nd := range n.Nodes {
		names = append(names, nd.Name)
	}
	sort.Strings(names)
	return names
}

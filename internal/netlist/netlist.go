// Package netlist provides the gate-level logic-network representation used
// by the front-end of the tool flow (synthesis and technology mapping), a
// builder API used by the workload generators, a cycle-accurate simulator
// used for equivalence checking, and a BLIF reader/writer.
package netlist

import (
	"fmt"

	"repro/internal/logic"
)

// Kind discriminates node types in a Netlist.
type Kind int

const (
	// KindInput is a primary input.
	KindInput Kind = iota
	// KindGate is a combinational node with a truth table over its fanins.
	KindGate
	// KindLatch is a D flip-flop: one fanin (D); the node value is Q.
	KindLatch
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	case KindLatch:
		return "latch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one vertex of the logic network.
type Node struct {
	ID     int
	Kind   Kind
	Name   string
	Fanins []int    // node IDs; for gates len == Func.NumVars, for latches len == 1
	Func   logic.TT // gate function (gates only)
	Init   bool     // latch initial state
}

// Output is a named primary output driven by a node.
type Output struct {
	Name   string
	Driver int // node ID
}

// Netlist is a logic network: a DAG of gates and latches over primary
// inputs, with named primary outputs. Latches break combinational cycles.
type Netlist struct {
	Name    string
	Nodes   []*Node
	Outputs []Output
	byName  map[string]int
}

// New creates an empty netlist with the given model name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: map[string]int{}}
}

// AddInput appends a primary input node and returns its ID.
func (n *Netlist) AddInput(name string) int {
	return n.addNode(&Node{Kind: KindInput, Name: name})
}

// AddGate appends a combinational node computing fn over the fanins and
// returns its ID.
func (n *Netlist) AddGate(name string, fn logic.TT, fanins ...int) int {
	if len(fanins) != fn.NumVars {
		panic(fmt.Sprintf("netlist: gate %q has %d fanins for a %d-var function", name, len(fanins), fn.NumVars))
	}
	for _, f := range fanins {
		n.check(f)
	}
	return n.addNode(&Node{Kind: KindGate, Name: name, Fanins: append([]int(nil), fanins...), Func: fn})
}

// AddLatch appends a D flip-flop with the given data fanin and initial
// state, returning its ID (the Q signal).
func (n *Netlist) AddLatch(name string, d int, init bool) int {
	n.check(d)
	return n.addNode(&Node{Kind: KindLatch, Name: name, Fanins: []int{d}, Init: init})
}

// AddLatchPlaceholder appends a latch whose data fanin is wired later with
// SetLatchData, enabling feedback loops. The placeholder fanin is the latch
// itself (a legal self-loop) until patched.
func (n *Netlist) AddLatchPlaceholder(name string, init bool) int {
	node := &Node{Kind: KindLatch, Name: name, Init: init}
	id := n.addNode(node)
	node.Fanins = []int{id}
	return id
}

// SetLatchData wires the data input of a latch created earlier.
func (n *Netlist) SetLatchData(latch, d int) {
	n.check(latch)
	n.check(d)
	if n.Nodes[latch].Kind != KindLatch {
		panic(fmt.Sprintf("netlist: SetLatchData on non-latch node %d", latch))
	}
	n.Nodes[latch].Fanins[0] = d
}

// AddOutput declares node driver as the primary output called name.
func (n *Netlist) AddOutput(name string, driver int) {
	n.check(driver)
	n.Outputs = append(n.Outputs, Output{Name: name, Driver: driver})
}

func (n *Netlist) addNode(node *Node) int {
	node.ID = len(n.Nodes)
	if node.Name == "" {
		node.Name = fmt.Sprintf("n%d", node.ID)
	}
	if _, dup := n.byName[node.Name]; dup {
		node.Name = fmt.Sprintf("%s_%d", node.Name, node.ID)
	}
	n.byName[node.Name] = node.ID
	n.Nodes = append(n.Nodes, node)
	return node.ID
}

func (n *Netlist) check(id int) {
	if id < 0 || id >= len(n.Nodes) {
		panic(fmt.Sprintf("netlist: node id %d out of range (have %d nodes)", id, len(n.Nodes)))
	}
}

// Reconstruct builds a netlist from raw parts — nodes in ID order (node
// i must carry ID i) plus the primary outputs — rebuilding the name index
// that the builder API normally maintains. It is the entry point for
// decoders (internal/codec) that materialise a netlist from a serialised
// form rather than growing it node by node; unlike AddGate it accepts
// forward fanin references (a gate may read a later latch's Q), so the
// whole node set is checked at once with Validate before returning.
func Reconstruct(name string, nodes []*Node, outputs []Output) (*Netlist, error) {
	n := &Netlist{Name: name, Nodes: nodes, Outputs: outputs, byName: make(map[string]int, len(nodes))}
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("netlist: Reconstruct: node %d is nil", i)
		}
		if nd.ID != i {
			return nil, fmt.Errorf("netlist: Reconstruct: node at index %d has ID %d", i, nd.ID)
		}
		if _, dup := n.byName[nd.Name]; dup {
			return nil, fmt.Errorf("netlist: Reconstruct: duplicate node name %q", nd.Name)
		}
		n.byName[nd.Name] = i
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: Reconstruct: %w", err)
	}
	return n, nil
}

// Inputs returns the IDs of the primary inputs in creation order.
func (n *Netlist) Inputs() []int {
	var ids []int
	for _, nd := range n.Nodes {
		if nd.Kind == KindInput {
			ids = append(ids, nd.ID)
		}
	}
	return ids
}

// CountKind returns the number of nodes of the given kind.
func (n *Netlist) CountKind(k Kind) int {
	c := 0
	for _, nd := range n.Nodes {
		if nd.Kind == k {
			c++
		}
	}
	return c
}

// Fanouts computes, for every node, the IDs of nodes that consume it.
func (n *Netlist) Fanouts() [][]int {
	fo := make([][]int, len(n.Nodes))
	for _, nd := range n.Nodes {
		for _, f := range nd.Fanins {
			fo[f] = append(fo[f], nd.ID)
		}
	}
	return fo
}

// TopoOrder returns the node IDs in a topological order of the
// combinational DAG: inputs and latches first (their Q values are state),
// then gates so that every gate follows all of its fanins. It panics on a
// combinational cycle.
func (n *Netlist) TopoOrder() []int {
	order := make([]int, 0, len(n.Nodes))
	state := make([]int8, len(n.Nodes)) // 0 unvisited, 1 visiting, 2 done
	var visit func(int)
	visit = func(id int) {
		switch state[id] {
		case 2:
			return
		case 1:
			panic(fmt.Sprintf("netlist: combinational cycle through node %d (%s)", id, n.Nodes[id].Name))
		}
		state[id] = 1
		if n.Nodes[id].Kind == KindGate {
			for _, f := range n.Nodes[id].Fanins {
				visit(f)
			}
		}
		state[id] = 2
		order = append(order, id)
	}
	// Visit latch data fanins and outputs so dead logic is ordered too.
	for _, nd := range n.Nodes {
		visit(nd.ID)
		if nd.Kind == KindLatch {
			visit(nd.Fanins[0])
		}
	}
	return order
}

// Depth returns the maximum number of gates on any register-to-register,
// input-to-register or input-to-output combinational path.
func (n *Netlist) Depth() int {
	depth := make([]int, len(n.Nodes))
	max := 0
	for _, id := range n.TopoOrder() {
		nd := n.Nodes[id]
		if nd.Kind != KindGate {
			depth[id] = 0
			continue
		}
		d := 0
		for _, f := range nd.Fanins {
			if depth[f] > d {
				d = depth[f]
			}
		}
		depth[id] = d + 1
		if depth[id] > max {
			max = depth[id]
		}
	}
	return max
}

// Stats summarises a netlist for reporting.
type Stats struct {
	Inputs, Outputs, Gates, Latches, Depth int
}

// Stats returns summary statistics of the netlist.
func (n *Netlist) Stats() Stats {
	return Stats{
		Inputs:  n.CountKind(KindInput),
		Outputs: len(n.Outputs),
		Gates:   n.CountKind(KindGate),
		Latches: n.CountKind(KindLatch),
		Depth:   n.Depth(),
	}
}

// Validate checks structural invariants: fanin arities match function
// arities, IDs are in range, latches have one fanin, gate fanin counts are
// within logic.MaxVars, and the combinational part is acyclic.
func (n *Netlist) Validate() error {
	for _, nd := range n.Nodes {
		for _, f := range nd.Fanins {
			if f < 0 || f >= len(n.Nodes) {
				return fmt.Errorf("node %d (%s): fanin %d out of range", nd.ID, nd.Name, f)
			}
		}
		switch nd.Kind {
		case KindGate:
			if len(nd.Fanins) != nd.Func.NumVars {
				return fmt.Errorf("node %d (%s): %d fanins but %d-var function", nd.ID, nd.Name, len(nd.Fanins), nd.Func.NumVars)
			}
			if nd.Func.NumVars > logic.MaxVars {
				return fmt.Errorf("node %d (%s): arity %d exceeds max %d", nd.ID, nd.Name, nd.Func.NumVars, logic.MaxVars)
			}
		case KindLatch:
			if len(nd.Fanins) != 1 {
				return fmt.Errorf("latch %d (%s): %d fanins, want 1", nd.ID, nd.Name, len(nd.Fanins))
			}
		case KindInput:
			if len(nd.Fanins) != 0 {
				return fmt.Errorf("input %d (%s): has fanins", nd.ID, nd.Name)
			}
		}
	}
	for _, o := range n.Outputs {
		if o.Driver < 0 || o.Driver >= len(n.Nodes) {
			return fmt.Errorf("output %s: driver %d out of range", o.Name, o.Driver)
		}
	}
	// TopoOrder panics on cycles; convert to error.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		n.TopoOrder()
		return nil
	}()
	return err
}

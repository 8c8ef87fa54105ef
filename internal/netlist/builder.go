package netlist

import (
	"fmt"

	"repro/internal/logic"
)

// Builder is a convenience layer over Netlist used by the workload
// generators. It exposes common gates and small arithmetic macros and
// maintains constant nodes lazily.
type Builder struct {
	N      *Netlist
	const0 int
	const1 int
	nGen   int
}

// NewBuilder returns a builder over a fresh netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{N: New(name), const0: -1, const1: -1}
}

func (b *Builder) autoName(prefix string) string {
	b.nGen++
	return fmt.Sprintf("%s_%d", prefix, b.nGen)
}

// Input adds a primary input.
func (b *Builder) Input(name string) int { return b.N.AddInput(name) }

// Output marks a signal as a primary output.
func (b *Builder) Output(name string, sig int) { b.N.AddOutput(name, sig) }

// Const returns the constant-0 or constant-1 node, creating it on first use
// as a zero-input gate.
func (b *Builder) Const(v bool) int {
	if v {
		if b.const1 < 0 {
			b.const1 = b.N.AddGate("const1", logic.ConstTT(0, true))
		}
		return b.const1
	}
	if b.const0 < 0 {
		b.const0 = b.N.AddGate("const0", logic.ConstTT(0, false))
	}
	return b.const0
}

// Not returns NOT a.
func (b *Builder) Not(a int) int {
	return b.N.AddGate(b.autoName("not"), logic.VarTT(1, 0).Not(), a)
}

// Buf returns a buffer of a (identity gate); synthesis elides these.
func (b *Builder) Buf(a int) int {
	return b.N.AddGate(b.autoName("buf"), logic.VarTT(1, 0), a)
}

// And returns the conjunction of the given signals (at least one).
func (b *Builder) And(sigs ...int) int {
	return b.reduce("and", sigs, func(x, y logic.TT) logic.TT { return x.And(y) })
}

// Or returns the disjunction of the given signals (at least one).
func (b *Builder) Or(sigs ...int) int {
	return b.reduce("or", sigs, func(x, y logic.TT) logic.TT { return x.Or(y) })
}

// Xor returns the exclusive-or of the given signals (at least one).
func (b *Builder) Xor(sigs ...int) int {
	return b.reduce("xor", sigs, func(x, y logic.TT) logic.TT { return x.Xor(y) })
}

// reduce builds a balanced tree of 2-input gates combining sigs.
func (b *Builder) reduce(opName string, sigs []int, op func(x, y logic.TT) logic.TT) int {
	if len(sigs) == 0 {
		panic("netlist: builder " + opName + " with no operands")
	}
	cur := append([]int(nil), sigs...)
	fn2 := op(logic.VarTT(2, 0), logic.VarTT(2, 1))
	for len(cur) > 1 {
		var next []int
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, b.N.AddGate(b.autoName(opName), fn2, cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0]
}

// Mux returns sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi int) int {
	s, l, h := logic.VarTT(3, 0), logic.VarTT(3, 1), logic.VarTT(3, 2)
	return b.N.AddGate(b.autoName("mux"), s.And(h).Or(s.Not().And(l)), sel, lo, hi)
}

// Latch adds a D flip-flop on d with initial value init.
func (b *Builder) Latch(d int, init bool) int {
	return b.N.AddLatch(b.autoName("ff"), d, init)
}

// HalfAdder returns (sum, carry) of a+b.
func (b *Builder) HalfAdder(a, c int) (sum, carry int) {
	return b.Xor(a, c), b.And(a, c)
}

// FullAdder returns (sum, carry) of a+b+cin.
func (b *Builder) FullAdder(a, c, cin int) (sum, carry int) {
	s1 := b.Xor(a, c)
	sum = b.Xor(s1, cin)
	carry = b.Or(b.And(a, c), b.And(s1, cin))
	return sum, carry
}

// RippleAdd returns the (len(a)+1)-bit sum of the equal-width vectors a and
// b, least-significant bit first.
func (b *Builder) RippleAdd(a, c []int) []int {
	if len(a) != len(c) {
		panic(fmt.Sprintf("netlist: RippleAdd width mismatch %d vs %d", len(a), len(c)))
	}
	out := make([]int, 0, len(a)+1)
	carry := -1
	for i := range a {
		var s int
		if carry < 0 {
			s, carry = b.HalfAdder(a[i], c[i])
		} else {
			s, carry = b.FullAdder(a[i], c[i], carry)
		}
		out = append(out, s)
	}
	return append(out, carry)
}

// RippleSub returns the len(a)-bit two's-complement difference a-b (wrap on
// underflow), least-significant bit first.
func (b *Builder) RippleSub(a, c []int) []int {
	if len(a) != len(c) {
		panic(fmt.Sprintf("netlist: RippleSub width mismatch %d vs %d", len(a), len(c)))
	}
	out := make([]int, len(a))
	carry := b.Const(true)
	for i := range a {
		nb := b.Not(c[i])
		out[i], carry = b.FullAdder(a[i], nb, carry)
	}
	return out
}

// ConstVector returns a vector of constant nodes for the low width bits of
// value, least-significant bit first.
func (b *Builder) ConstVector(value int64, width int) []int {
	out := make([]int, width)
	for i := 0; i < width; i++ {
		out[i] = b.Const(value>>uint(i)&1 == 1)
	}
	return out
}

// InputVector adds width primary inputs named prefix[0..width).
func (b *Builder) InputVector(prefix string, width int) []int {
	out := make([]int, width)
	for i := 0; i < width; i++ {
		out[i] = b.Input(fmt.Sprintf("%s[%d]", prefix, i))
	}
	return out
}

// OutputVector declares the signals as primary outputs prefix[0..len).
func (b *Builder) OutputVector(prefix string, sigs []int) {
	for i, s := range sigs {
		b.Output(fmt.Sprintf("%s[%d]", prefix, i), s)
	}
}

// RegisterVector latches every signal in the vector.
func (b *Builder) RegisterVector(sigs []int) []int {
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = b.Latch(s, false)
	}
	return out
}

// EqualsConst returns a signal that is true when the vector equals the low
// len(vec) bits of value.
func (b *Builder) EqualsConst(vec []int, value int64) int {
	terms := make([]int, len(vec))
	for i, s := range vec {
		if value>>uint(i)&1 == 1 {
			terms[i] = b.Buf(s)
		} else {
			terms[i] = b.Not(s)
		}
	}
	return b.And(terms...)
}

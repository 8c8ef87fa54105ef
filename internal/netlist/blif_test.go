package netlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const sampleBLIF = `
# a 2-bit counter with an enable
.model cnt2
.inputs en
.outputs q0 q1
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.names en q0 d0
10 1
01 1
.names en q0 q1 d1
110 1
0-1 1
101 1
.end
`

func TestReadBLIF(t *testing.T) {
	n, err := ReadBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "cnt2" {
		t.Errorf("model name %q", n.Name)
	}
	st := n.Stats()
	if st.Inputs != 1 || st.Outputs != 2 || st.Latches != 2 || st.Gates != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestBLIFCounterBehaviour(t *testing.T) {
	n, err := ReadBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(n)
	// d0 = en XOR q0, d1 = (en AND q0) XOR q1: a 2-bit counter when en=1.
	for cyc := 0; cyc < 8; cyc++ {
		out := sim.Step(map[string]bool{"en": true})
		got := 0
		if out["q0"] {
			got |= 1
		}
		if out["q1"] {
			got |= 2
		}
		if want := cyc % 4; got != want {
			t.Fatalf("cycle %d: got %d want %d", cyc, got, want)
		}
	}
	// With en=0 the counter holds.
	sim.Reset()
	for cyc := 0; cyc < 3; cyc++ {
		out := sim.Step(map[string]bool{"en": false})
		if out["q0"] || out["q1"] {
			t.Fatalf("cycle %d: counter moved with en=0", cyc)
		}
	}
}

func TestBLIFMixedCoverRejected(t *testing.T) {
	bad := `.model m
.inputs a b
.outputs y
.names a b y
11 1
00 0
.end`
	if _, err := ReadBLIF(strings.NewReader(bad)); err == nil {
		t.Fatal("expected mixed-cover error")
	}
}

func TestBLIFOffsetCover(t *testing.T) {
	src := `.model m
.inputs a b
.outputs y
.names a b y
11 0
.end`
	n, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(n)
	for row := 0; row < 4; row++ {
		in := map[string]bool{"a": row&1 == 1, "b": row&2 == 2}
		want := !(in["a"] && in["b"])
		if out := sim.Step(in); out["y"] != want {
			t.Fatalf("row %d: got %v want %v", row, out["y"], want)
		}
	}
}

func TestBLIFUndrivenSignal(t *testing.T) {
	bad := `.model m
.inputs a
.outputs y
.names a ghost y
11 1
.end`
	if _, err := ReadBLIF(strings.NewReader(bad)); err == nil {
		t.Fatal("expected undriven-signal error")
	}
}

func TestBLIFRoundTripEquivalence(t *testing.T) {
	// Build a random sequential netlist, write BLIF, read it back and check
	// cycle-by-cycle IO equivalence on random stimulus.
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder("rand")
	sigs := b.InputVector("in", 5)
	for i := 0; i < 40; i++ {
		x := sigs[rng.Intn(len(sigs))]
		y := sigs[rng.Intn(len(sigs))]
		var s int
		switch rng.Intn(5) {
		case 0:
			s = b.And(x, y)
		case 1:
			s = b.Or(x, y)
		case 2:
			s = b.Xor(x, y)
		case 3:
			s = b.Not(x)
		default:
			s = b.Latch(x, rng.Intn(2) == 0)
		}
		sigs = append(sigs, s)
	}
	for i := 0; i < 4; i++ {
		b.Output(keyOf("out", i), sigs[len(sigs)-1-i])
	}

	var buf bytes.Buffer
	if err := WriteBLIF(&buf, b.N); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}

	s1 := NewSimulator(b.N)
	s2 := NewSimulator(n2)
	for cyc := 0; cyc < 64; cyc++ {
		in := map[string]bool{}
		for i := 0; i < 5; i++ {
			in[keyOf("in", i)] = rng.Intn(2) == 0
		}
		o1 := s1.Step(in)
		o2 := s2.Step(in)
		for k, v := range o1 {
			if o2[k] != v {
				t.Fatalf("cycle %d output %s: original %v, round-trip %v", cyc, k, v, o2[k])
			}
		}
	}
}

func TestBLIFLineContinuation(t *testing.T) {
	src := ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
	n, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.CountKind(KindInput) != 2 {
		t.Fatalf("inputs = %d, want 2", n.CountKind(KindInput))
	}
}

func TestBLIFConstantGate(t *testing.T) {
	src := ".model m\n.outputs y\n.names y\n1\n.end\n"
	n, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(n)
	if out := sim.Step(nil); !out["y"] {
		t.Fatal("constant-1 gate read as 0")
	}
}

// FuzzReadBLIF hardens the BLIF reader, which parses untrusted netlists
// arriving over the compile service: it must never panic, and every
// netlist it accepts must write back out as BLIF it accepts again. Its
// seeds are sampleBLIF and, under testdata/fuzz/FuzzReadBLIF, the other
// fixtures of the tests above; plain go test replays them. Explore
// further with go test -run '^$' -fuzz FuzzReadBLIF ./internal/netlist.
func FuzzReadBLIF(f *testing.F) {
	f.Add([]byte(sampleBLIF))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ReadBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, n); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBLIF(&buf); err != nil {
			t.Fatalf("written BLIF does not re-read: %v\n%s", err, buf.Bytes())
		}
	})
}

// TestBLIFLongLines: the read buffer grows with the input, so a ~100 KB
// line parses, and the 1 MiB line limit still refuses anything longer.
func TestBLIFLongLines(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".model wide\n.inputs")
	const n = 17000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " i%d", i)
	}
	sb.WriteString("\n.outputs o\n.names i0 o\n1 1\n.end\n")
	if sb.Len() < 100_000 {
		t.Fatalf("test input only %d bytes", sb.Len())
	}
	nl, err := ReadBLIF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("~100 KB line: %v", err)
	}
	if got := nl.Stats().Inputs; got != n {
		t.Fatalf("parsed %d inputs, want %d", got, n)
	}

	long := "# " + strings.Repeat("x", maxBLIFLine) + "\n" + sampleBLIF
	if _, err := ReadBLIF(strings.NewReader(long)); err == nil {
		t.Fatal("a line over 1 MiB was accepted")
	}
}

// BenchmarkReadBLIF parses a small mode, the size the compile service
// parses per request; run with -benchmem to see the read buffer's share
// of the allocations.
func BenchmarkReadBLIF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBLIF(strings.NewReader(sampleBLIF)); err != nil {
			b.Fatal(err)
		}
	}
}

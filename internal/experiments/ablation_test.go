package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/netlist"
)

// TestAblationSummarisesComparison: the merge ablation and the frame
// outlook summarise the suite's first-group comparison, so the ablation's
// MDR, edge-match and wire-length figures are the group's RunGroup result
// and the frame outlook equals that of an independent RunComparison of
// the group; the relax ablation's tight half is an independent
// comparison at relax=1.0. An identity merge that no ladder attempt
// implements comes back as a reported result, not as an error.
func TestAblationSummarisesComparison(t *testing.T) {
	sc := Scale{Effort: 0.1, Seed: 1, Cache: flow.NewCache()}
	s := tinySuites(t, sc)[0]
	cmp, err := FirstComparison(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunGroup(s, s.Groups[0], sc)
	if err != nil {
		t.Fatal(err)
	}

	a := RunAblation(s, sc, cmp)
	if a.IdentityErr != nil {
		t.Fatalf("identity merge: %v", a.IdentityErr)
	}
	if !reflect.DeepEqual(a.Group, want) {
		t.Fatalf("ablation summary %+v, RunGroup gives %+v", a.Group, want)
	}
	if a.IdentityW < want.ChannelW || a.IdentityBits == 0 || a.IdentityWire == 0 {
		t.Fatalf("identity merge routed on W %d (comparison W %d) with %d bits, wire %v",
			a.IdentityW, want.ChannelW, a.IdentityBits, a.IdentityWire)
	}

	modes := groupModes(s, s.Groups[0])
	ref, err := flow.RunComparison("reference", modes, s.config(sc))
	if err != nil {
		t.Fatal(err)
	}
	if f, g := RunFrames(s, cmp, 64), RunFrames(s, ref, 64); !reflect.DeepEqual(f, g) {
		t.Fatalf("frames %+v, RunComparison of the group gives %+v", f, g)
	}
	tight, err := RunRelaxAblation(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := s.config(sc)
	tcfg.RelaxArea, tcfg.RelaxW = 1.0, 1.0
	tref, err := flow.RunComparison("tight", modes, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if tight.SpeedupWL != flow.Speedup(tref.MDR, tref.WireLen) || tight.WireWL != flow.WireRatio(tref.MDR, tref.WireLen) {
		t.Fatalf("tight half %+v, RunComparison at relax=1.0 gives speedup %v wire %v",
			tight, flow.Speedup(tref.MDR, tref.WireLen), flow.WireRatio(tref.MDR, tref.WireLen))
	}

	// The identity merge gives inputs and outputs pad groups of their
	// own, so a mode with many inputs next to one with many outputs needs
	// more pads than the region, sized for the widest mode's I/O, has.
	// Every attempt fails, and the other merges are still reported.
	pads := padHungrySuite(t)
	pcmp, err := FirstComparison(pads, sc)
	if err != nil {
		t.Fatal(err)
	}
	u := RunAblation(pads, sc, pcmp)
	if u.IdentityErr == nil || u.IdentityW != 0 || u.IdentityBits != 0 {
		t.Fatalf("pad-hungry identity merge: W %d, %d bits, err %v", u.IdentityW, u.IdentityBits, u.IdentityErr)
	}
	if want, err := RunGroup(pads, pads.Groups[0], sc); err != nil || !reflect.DeepEqual(u.Group, want) {
		t.Fatalf("ablation summary %+v, RunGroup gives %+v (%v)", u.Group, want, err)
	}
	var sb strings.Builder
	PrintAblation(&sb, u)
	if out := sb.String(); !strings.Contains(out, "identity=unroutable") || !strings.Contains(out, u.IdentityErr.Error()) {
		t.Fatalf("unroutable identity merge not reported:\n%s", out)
	}
}

// padHungrySuite is one group of two modes: a 40-input AND and a 2-input
// XOR driving 40 outputs.
func padHungrySuite(t *testing.T) *Suite {
	t.Helper()
	wide := netlist.NewBuilder("wide-in")
	wide.Output("o", wide.And(wide.InputVector("in", 40)...))
	fan := netlist.NewBuilder("wide-out")
	in := fan.InputVector("in", 2)
	x := fan.Xor(in[0], in[1])
	for o := 0; o < 40; o++ {
		fan.Output(fmt.Sprintf("o[%d]", o), x)
	}
	circuits, err := flow.MapModes([]*netlist.Netlist{wide.N, fan.N}, flow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &Suite{Name: "Pads", Circuits: circuits, Groups: [][]int{{0, 1}}}
}

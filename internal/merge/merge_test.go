package merge

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/techmap"
)

// randomCircuit builds a seeded random sequential LUT circuit.
func randomCircuit(t *testing.T, seed int64, nGates int) *lutnet.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("rand%d", seed))
	sigs := b.InputVector("in", 5)
	for i := 0; i < nGates; i++ {
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
			s = b.Latch(x, false)
		}
		sigs = append(sigs, s)
	}
	for i := 0; i < 4; i++ {
		b.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
	}
	c, err := techmap.Map(b.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// similarPair builds two structurally related circuits (same generator,
// perturbed seed) — the typical multi-mode scenario.
func similarPair(t *testing.T) []*lutnet.Circuit {
	return []*lutnet.Circuit{randomCircuit(t, 10, 40), randomCircuit(t, 11, 40)}
}

func archFor(modes []*lutnet.Circuit) arch.Arch {
	maxBlocks, maxIO := 0, 0
	for _, c := range modes {
		if c.NumBlocks() > maxBlocks {
			maxBlocks = c.NumBlocks()
		}
		if io := c.NumPIs() + len(c.POs); io > maxIO {
			maxIO = io
		}
	}
	side := arch.MinGridForBlocks(maxBlocks, maxIO, 1.2)
	return arch.New(side, side, 8)
}

func TestCombinedPlaceLegalAndEquivalent(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		res, err := CombinedPlace("mm", modes, a, Options{Seed: 1, Effort: 0.3, Objective: obj})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		// Each extracted mode must be IO-equivalent to its original.
		for m := range modes {
			got, err := res.Tunable.ExtractMode(m)
			if err != nil {
				t.Fatalf("%v mode %d: %v", obj, m, err)
			}
			simEq(t, modes[m], got, 32, int64(m))
		}
		// Site arrays must be consistent with group counts.
		if len(res.LUTSite) != res.Assignment.NumLUTGroups {
			t.Fatalf("%v: %d LUT sites for %d groups", obj, len(res.LUTSite), res.Assignment.NumLUTGroups)
		}
		if len(res.PadSite) != res.Assignment.NumPadGroups {
			t.Fatalf("%v: %d pad sites for %d groups", obj, len(res.PadSite), res.Assignment.NumPadGroups)
		}
		// Sites must be unique (a group is a physical location).
		seen := map[arch.Site]bool{}
		for _, s := range append(append([]arch.Site{}, res.LUTSite...), res.PadSite...) {
			if seen[s] {
				t.Fatalf("%v: duplicate group site %v", obj, s)
			}
			seen[s] = true
		}
		for _, s := range res.LUTSite {
			if s.IsIO {
				t.Fatalf("%v: LUT group on pad site", obj)
			}
		}
		for _, s := range res.PadSite {
			if !s.IsIO {
				t.Fatalf("%v: pad group on CLB site", obj)
			}
		}
	}
}

func simEq(t *testing.T, a, b *lutnet.Circuit, cycles int, seed int64) {
	t.Helper()
	sa, err := lutnet.NewSimulator(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := lutnet.NewSimulator(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]bool{}
		for _, nm := range a.PINames {
			in[nm] = rng.Intn(2) == 0
		}
		oa, ob := sa.Step(in), sb.Step(in)
		for k, v := range oa {
			if ob[k] != v {
				t.Fatalf("cycle %d output %s differs", cyc, k)
			}
		}
	}
}

func TestEdgeMatchReducesTunableConnections(t *testing.T) {
	// Merging two identical circuits must match almost all connections
	// under the edge-matching objective.
	c1 := randomCircuit(t, 20, 40)
	c2 := randomCircuit(t, 20, 40) // same seed: identical circuit
	modes := []*lutnet.Circuit{c1, c2}
	a := archFor(modes)
	res, err := CombinedPlace("twin", modes, a, Options{Seed: 2, Effort: 0.5, Objective: EdgeMatch})
	if err != nil {
		t.Fatal(err)
	}
	perMode := res.TotalModeConns / 2
	if res.TunableConns > perMode*13/10 {
		t.Errorf("identical modes: %d tunable conns vs %d per-mode (poor matching)",
			res.TunableConns, perMode)
	}
}

func TestWireLengthObjectiveBeatsRandomGrouping(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	res, err := CombinedPlace("mm", modes, a, Options{Seed: 3, Effort: 0.4, Objective: WireLength})
	if err != nil {
		t.Fatal(err)
	}
	low, err := CombinedPlace("mm", modes, a, Options{Seed: 3, Effort: 0.01, Objective: WireLength})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > low.Cost {
		t.Errorf("more effort worsened cost: %.1f vs %.1f", res.Cost, low.Cost)
	}
}

func TestCombinedPlaceDeterministic(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	r1, err := CombinedPlace("mm", modes, a, Options{Seed: 4, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CombinedPlace("mm", modes, a, Options{Seed: 4, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || r1.TunableConns != r2.TunableConns {
		t.Fatalf("non-deterministic: cost %.2f/%.2f conns %d/%d", r1.Cost, r2.Cost, r1.TunableConns, r2.TunableConns)
	}
	for g := range r1.LUTSite {
		if r1.LUTSite[g] != r2.LUTSite[g] {
			t.Fatalf("site of group %d differs", g)
		}
	}
}

func TestCombinedPlaceRejectsOversize(t *testing.T) {
	modes := similarPair(t)
	tiny := arch.New(2, 2, 4)
	if _, err := CombinedPlace("mm", modes, tiny, Options{Seed: 1}); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestTunableConnsNeverBelowMaxMode(t *testing.T) {
	// The tunable circuit must contain at least as many connections as the
	// largest mode (lower bound on merging).
	modes := similarPair(t)
	a := archFor(modes)
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		res, err := CombinedPlace("mm", modes, a, Options{Seed: 5, Effort: 0.3, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Tunable.Stats()
		maxMode := 0
		for _, n := range st.PerModeConn {
			if n > maxMode {
				maxMode = n
			}
		}
		if st.NumConns < maxMode {
			t.Errorf("%v: %d conns below largest mode %d", obj, st.NumConns, maxMode)
		}
		if st.NumConns > res.TotalModeConns {
			t.Errorf("%v: merging increased connection count", obj)
		}
	}
}

func TestThreeModeCombinedPlace(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 30, 25),
		randomCircuit(t, 31, 25),
		randomCircuit(t, 32, 25),
	}
	a := archFor(modes)
	res, err := CombinedPlace("tri", modes, a, Options{Seed: 6, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tunable.NumModes != 3 {
		t.Fatalf("NumModes = %d", res.Tunable.NumModes)
	}
	for m := range modes {
		got, err := res.Tunable.ExtractMode(m)
		if err != nil {
			t.Fatal(err)
		}
		simEq(t, modes[m], got, 16, int64(m+40))
	}
}

// TestCombinedPlaceIgnoresChannelWidth: the combined placement is a pure
// function of the logic array's dimensions — the routing channel width of
// the architecture it is handed never influences the result. The cold
// retry ladder places once per seed and reuses the placement at every
// width it widens to, which rests on this.
func TestCombinedPlaceIgnoresChannelWidth(t *testing.T) {
	for _, modes := range [][]*lutnet.Circuit{
		similarPair(t),
		{randomCircuit(t, 30, 25), randomCircuit(t, 31, 25), randomCircuit(t, 32, 25)},
	} {
		a0 := archFor(modes)
		for _, obj := range []Objective{WireLength, EdgeMatch} {
			var want *Result
			for _, w := range []int{4, a0.W, a0.W + 12} {
				a := arch.New(a0.Width, a0.Height, w)
				res, err := CombinedPlace("mm", modes, a, Options{Seed: 3, Effort: 0.2, Objective: obj})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
				} else if !reflect.DeepEqual(res, want) || math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%d modes, %v: combined placement at channel width %d differs from width 4", len(modes), obj, w)
				}
			}
		}
	}
}

// TestRebuildFromModeSites: a finished combined placement rebuilt from
// its per-mode site vectors — the form an ECO baseline stores — is the
// same Result, for a two-mode group and for a three-mode group whose
// placements pin repair changed (under both objectives, repairPins
// relocates one cell of this group).
func TestRebuildFromModeSites(t *testing.T) {
	for _, modes := range [][]*lutnet.Circuit{
		similarPair(t),
		{randomCircuit(t, 20, 60), randomCircuit(t, 21, 60), randomCircuit(t, 22, 60)},
	} {
		a := archFor(modes)
		for _, obj := range []Objective{WireLength, EdgeMatch} {
			res, err := CombinedPlace("mm", modes, a, Options{Seed: 3, Effort: 0.2, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromModeSites("mm", modes, a, obj, res.ModeSites())
			if err != nil {
				t.Fatalf("%d modes, %v: %v", len(modes), obj, err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Fatalf("%d modes, %v: rebuilt combined placement differs from the original", len(modes), obj)
			}
		}
	}
}

// TestFromModeSitesRejectsMisfits: site vectors that do not fit the modes
// or the architecture are an error, never a panic.
func TestFromModeSitesRejectsMisfits(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	res, err := CombinedPlace("mm", modes, a, Options{Seed: 5, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func([][]arch.Site) [][]arch.Site{
		"nil":      func([][]arch.Site) [][]arch.Site { return nil },
		"one mode": func(s [][]arch.Site) [][]arch.Site { return s[:1] },
		"short":    func(s [][]arch.Site) [][]arch.Site { s[1] = s[1][:len(s[1])-1]; return s },
		"off-arch": func(s [][]arch.Site) [][]arch.Site { s[0][0].X += 1000; return s },
		"wrong class": func(s [][]arch.Site) [][]arch.Site {
			s[0][0] = s[0][len(s[0])-1]
			return s
		},
	} {
		if _, err := FromModeSites("mm", modes, a, WireLength, bad(res.ModeSites())); err == nil {
			t.Errorf("%s site vectors accepted", name)
		}
	}
}

package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flow"
)

func TestBuildSuitesShapes(t *testing.T) {
	sc := Scale{GroupsPerSuite: 2, Effort: 0.1, Seed: 1}
	suites, err := BuildSuites(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 3 {
		t.Fatalf("suites = %d, want 3", len(suites))
	}
	wantCircuits := map[string]int{"RegExp": 5, "FIR": 20, "MCNC": 5}
	for _, s := range suites {
		if len(s.Circuits) != wantCircuits[s.Name] {
			t.Errorf("%s: %d circuits, want %d", s.Name, len(s.Circuits), wantCircuits[s.Name])
		}
		if len(s.Groups) != 2 {
			t.Errorf("%s: %d groups, want 2 (capped)", s.Name, len(s.Groups))
		}
		for _, grp := range s.Groups {
			if len(grp) != 2 {
				t.Errorf("%s: paper suites must form 2-mode groups, got %v", s.Name, grp)
			}
			seen := map[int]bool{}
			for _, idx := range grp {
				if idx < 0 || idx >= len(s.Circuits) || seen[idx] {
					t.Errorf("%s: bad group %v", s.Name, grp)
				}
				seen[idx] = true
			}
		}
	}
}

func TestSelectSpreadDeterministicAndUnbiased(t *testing.T) {
	groups := allGroups(6, 2) // 15 combinations
	a := selectSpread(groups, 5, 42)
	b := selectSpread(groups, 5, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded spread is not deterministic")
	}
	if len(a) != 5 {
		t.Fatalf("cap not applied: %d groups", len(a))
	}
	// Not the old prefix bias: at least one selected group must come from
	// the back half of the enumeration.
	prefix := true
	for _, g := range a {
		for i, full := range groups[len(groups)/2:] {
			_ = i
			if reflect.DeepEqual(g, full) {
				prefix = false
			}
		}
	}
	if prefix {
		t.Error("spread selected only the enumeration prefix")
	}
	// Selection order must remain the enumeration order.
	last := -1
	pos := map[string]int{}
	for i, g := range groups {
		pos[fmt.Sprint(g)] = i
	}
	for _, g := range a {
		if p := pos[fmt.Sprint(g)]; p < last {
			t.Fatal("spread broke enumeration order")
		} else {
			last = p
		}
	}
	// No cap: unchanged.
	if got := selectSpread(groups, 0, 1); !reflect.DeepEqual(got, groups) {
		t.Error("cap 0 must keep all groups")
	}
}

func TestAllGroups(t *testing.T) {
	if got := len(allGroups(5, 2)); got != 10 {
		t.Errorf("C(5,2) = %d, want 10", got)
	}
	if got := len(allGroups(4, 3)); got != 4 {
		t.Errorf("C(4,3) = %d, want 4", got)
	}
	if got := allGroups(3, 3); len(got) != 1 || !reflect.DeepEqual(got[0], []int{0, 1, 2}) {
		t.Errorf("C(3,3) = %v", got)
	}
	if got := len(allGroups(2, 3)); got != 0 {
		t.Errorf("C(2,3) = %d, want 0", got)
	}
}

func TestTableIMatchesPaperEnvelope(t *testing.T) {
	suites, err := BuildSuites(Scale{GroupsPerSuite: 1, Effort: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := TableI(suites)
	// Paper Table I: RegExp 224/243/261, FIR 235/302/371, MCNC 264/310/404.
	paper := map[string][3]int{
		"RegExp": {224, 243, 261},
		"FIR":    {235, 302, 371},
		"MCNC":   {264, 310, 404},
	}
	for _, r := range rows {
		want := paper[r.Suite]
		// Calibration tolerance: ±20% on each statistic.
		check := func(got, target int, label string) {
			lo, hi := target*8/10, target*12/10
			if got < lo || got > hi {
				t.Errorf("%s %s = %d outside ±20%% of paper's %d", r.Suite, label, got, target)
			}
		}
		check(r.Min, want[0], "min")
		check(r.Avg, want[1], "avg")
		check(r.Max, want[2], "max")
	}
}

func TestAreaSavingsNearPaper(t *testing.T) {
	suites, err := BuildSuites(Scale{GroupsPerSuite: 4, Effort: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range AreaSavings(suites) {
		// Two similar-size modes share one region: ratio near 50%.
		if row.Ratio < 0.40 || row.Ratio > 0.62 {
			t.Errorf("%s area ratio %.2f outside the ~50%% envelope", row.Suite, row.Ratio)
		}
	}
}

func TestFIRGenericRatioNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, g, ratio, err := FIRGenericRatio(Scale{Effort: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || g <= c {
		t.Fatalf("sizes: const %d generic %d", c, g)
	}
	// Paper: constant filter ≈ 33% of the generic one.
	if ratio < 0.15 || ratio > 0.55 {
		t.Errorf("constant/generic ratio %.2f far from paper's ~0.33", ratio)
	}
}

func TestDistOf(t *testing.T) {
	d := distOf([]float64{3, 1, 2})
	if d.Min != 1 || d.Max != 3 || d.Avg != 2 {
		t.Errorf("distOf = %+v", d)
	}
}

func TestRunGroupFullMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full group takes ~120s on 2 cores, ~190s on 1")
	}
	sc := Scale{GroupsPerSuite: 1, Effort: 0.12, Seed: 1}
	suites, err := BuildSuites(sc)
	if err != nil {
		t.Fatal(err)
	}
	// FIR groups are the smallest/quickest.
	var fir *Suite
	for _, s := range suites {
		if s.Name == "FIR" {
			fir = s
		}
	}
	r, err := RunGroup(fir, fir.Groups[0], sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedupWL <= 1 || r.SpeedupEM <= 1 {
		t.Errorf("speed-ups not above 1: EM=%.2f WL=%.2f", r.SpeedupEM, r.SpeedupWL)
	}
	if r.WLBits >= r.MDRBits || r.EMBits >= r.MDRBits {
		t.Errorf("DCS bits not below MDR: %d/%d vs %d", r.WLBits, r.EMBits, r.MDRBits)
	}
	if r.DiffBits >= r.MDRBits {
		t.Errorf("Diff bits %d not below MDR %d", r.DiffBits, r.MDRBits)
	}
	if r.WireWL <= 0 || r.WireEM <= 0 {
		t.Errorf("wire ratios: EM=%.2f WL=%.2f", r.WireEM, r.WireWL)
	}
	// Switch-cost matrices: right shape, symmetric, consistent with the
	// single-number accounting of a 2-mode group.
	n := r.NumModes()
	for _, m := range []struct {
		label string
		mat   flow.SwitchMatrix
	}{{"MDR", r.MDRSwitch}, {"Diff", r.DiffSwitch}, {"DCS", r.DCSSwitch}} {
		if m.mat.N() != n {
			t.Fatalf("%s switch matrix is %d×, want %d×", m.label, m.mat.N(), n)
		}
		if !m.mat.Symmetric() {
			t.Errorf("%s switch matrix not symmetric", m.label)
		}
		for i := 0; i < n; i++ {
			if m.mat[i][i] != 0 {
				t.Errorf("%s switch matrix diagonal not zero", m.label)
			}
		}
	}
	if r.MDRSwitch[0][1] != r.MDRBits {
		t.Errorf("MDR full-rewrite switch %d != reconfig bits %d", r.MDRSwitch[0][1], r.MDRBits)
	}
	if r.DCSSwitch[0][1] != r.WLBits {
		t.Errorf("2-mode DCS switch %d != WL reconfig bits %d", r.DCSSwitch[0][1], r.WLBits)
	}
	if r.DiffSwitch[0][1] <= 0 || r.DiffSwitch[0][1] >= r.MDRBits {
		t.Errorf("Diff switch cost %d outside (0, MDR %d)", r.DiffSwitch[0][1], r.MDRBits)
	}
	// Reports must render.
	var sb strings.Builder
	PrintGroup(&sb, r)
	PrintSwitchMatrices(&sb, r)
	PrintFig5(&sb, Fig5([]*GroupResult{r}))
	PrintFig6(&sb, Fig6([]*GroupResult{r}, "FIR"))
	PrintFig7(&sb, Fig7([]*GroupResult{r}))
	if !strings.Contains(sb.String(), "FIR") {
		t.Error("report rendering broken")
	}
}

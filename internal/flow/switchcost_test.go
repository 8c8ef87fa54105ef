package flow

import (
	"testing"

	"repro/internal/lutnet"
)

func TestSwitchMatrixStats(t *testing.T) {
	m := SwitchMatrix{
		{0, 10, 30},
		{10, 0, 20},
		{30, 20, 0},
	}
	if !m.Symmetric() {
		t.Error("symmetric matrix reported asymmetric")
	}
	if got := m.Avg(); got != 20 {
		t.Errorf("Avg = %v, want 20", got)
	}
	from, to, cost := m.Worst()
	if cost != 30 || from+to != 2 {
		t.Errorf("Worst = (%d,%d,%d), want cost 30 between modes 0 and 2", from, to, cost)
	}
	m[1][2] = 25
	if m.Symmetric() {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewSwitchMatrix(0).Avg() != 0 {
		t.Error("empty matrix Avg not 0")
	}
}

// TestMDRSwitchMatrixSymmetric is the full-rewrite accounting invariant:
// every off-diagonal entry is the whole region and the matrix is
// symmetric for any mode count.
func TestMDRSwitchMatrixSymmetric(t *testing.T) {
	region := Config{}.NewRegion(4, 6)
	total := region.Graph.TotalConfigBits()
	for n := 2; n <= 5; n++ {
		m := MDRSwitchMatrix(region, n)
		if m.N() != n {
			t.Fatalf("n=%d: matrix size %d", n, m.N())
		}
		if !m.Symmetric() {
			t.Errorf("n=%d: MDR full-rewrite matrix not symmetric", n)
		}
		for i := range m {
			for j := range m[i] {
				want := total
				if i == j {
					want = 0
				}
				if m[i][j] != want {
					t.Errorf("n=%d: m[%d][%d] = %d, want %d", n, i, j, m[i][j], want)
				}
			}
		}
	}
}

// TestIdenticalModesZeroParamBits: a group whose modes are all the same
// circuit must need no parameterised routing bits — every Tunable
// connection is active in every mode, so the entire routing is static and
// only the (always-rewritten) LUT bits remain in the DCS switch cost.
func TestIdenticalModesZeroParamBits(t *testing.T) {
	cfg := Config{PlaceEffort: 0.2, Seed: 5}
	nls := buildPair(t, 61, 62, 24)
	mapped, err := MapModes(nls[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := mapped[0]
	modes := []*lutnet.Circuit{c, c, c}

	region, err := SizeRegion(modes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var id *DCSResult
	for attempt := 0; ; attempt++ {
		id, err = RunDCSIdentity("same", modes, region, cfg)
		if err == nil {
			break
		}
		if attempt >= 6 {
			t.Fatal(err)
		}
		region = cfg.NewRegion(region.Arch.Width, region.Arch.W+2)
	}
	if id.TRoute.ParamRoutingBits != 0 {
		t.Fatalf("identical 3-mode group has %d parameterised routing bits, want 0",
			id.TRoute.ParamRoutingBits)
	}
	m := DCSSwitchMatrix(region.Arch, id.TRoute, len(modes))
	lut := region.Arch.TotalLUTBits()
	for i := range m {
		for j := range m[i] {
			want := 0
			if i != j {
				want = lut // the conservative all-LUT rewrite, nothing else
			}
			if m[i][j] != want {
				t.Errorf("DCS switch m[%d][%d] = %d, want %d", i, j, m[i][j], want)
			}
		}
	}
}

// TestDiffSwitchMatrixMatchesDiffCounting ties the Diff matrix to the
// flow's routing-bit Diff analysis on a 2-mode group: the routing part of
// the assembled-bitstream diff must equal MDRResult.DiffRoutingBits, so
// the matrix entry sits between that and the full Diff accounting.
func TestDiffSwitchMatrixMatchesDiffCounting(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{PlaceEffort: 0.2, Seed: 3}
	nls := buildPair(t, 71, 72, 26)
	mapped, err := MapModes(nls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region, err := SizeRegion(mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mdr *MDRResult
	for attempt := 0; ; attempt++ {
		mdr, err = RunMDR(mapped, region, cfg)
		if err == nil {
			break
		}
		if attempt >= 6 {
			t.Fatal(err)
		}
		region = cfg.NewRegion(region.Arch.Width, region.Arch.W+2)
	}
	m, err := MDRDiffSwitchMatrix(region, mapped, mdr)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Symmetric() {
		t.Error("Diff switch matrix not symmetric")
	}
	// The assembled-bitstream diff includes LUT bits; its routing share
	// alone cannot exceed the full Diff accounting, and the total must be
	// positive for two different circuits.
	if m[0][1] <= 0 {
		t.Error("Diff switch cost not positive for distinct modes")
	}
	if max := mdr.DiffReconfigBits(region.Arch); m[0][1] > max {
		t.Errorf("Diff switch cost %d exceeds Diff accounting %d", m[0][1], max)
	}
}

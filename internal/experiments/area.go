package experiments

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/gen/firgen"
	"repro/internal/netlist"
)

// AreaRow captures the §IV-C area observations for one suite: the
// multi-mode region versus static side-by-side implementations.
type AreaRow struct {
	Suite string
	// MultiModeCLBs is the region size shared by all modes (max mode).
	MultiModeCLBs float64
	// StaticCLBs is the summed size of the separate static
	// implementations.
	StaticCLBs float64
	// Ratio = MultiModeCLBs / StaticCLBs (paper: ~50% for RegExp/MCNC).
	Ratio float64
}

// AreaSavings computes the multi-mode vs static area ratio per suite,
// averaged over the selected groups: a group's shared region is sized by
// its biggest mode, the static alternative sums every mode.
func AreaSavings(suites []*Suite) []AreaRow {
	var rows []AreaRow
	for _, s := range suites {
		var mm, static float64
		for _, grp := range s.Groups {
			max, sum := 0, 0
			for _, idx := range grp {
				b := s.Circuits[idx].NumBlocks()
				if b > max {
					max = b
				}
				sum += b
			}
			mm += float64(max)
			static += float64(sum)
		}
		rows = append(rows, AreaRow{
			Suite:         s.Name,
			MultiModeCLBs: mm / float64(len(s.Groups)),
			StaticCLBs:    static / float64(len(s.Groups)),
			Ratio:         mm / static,
		})
	}
	return rows
}

// FIRGenericRatio reproduces the claim that a constant-coefficient filter
// is ~3× smaller (the paper reports the adaptive filter needing only 33%
// of the generic filter's area).
func FIRGenericRatio(sc Scale) (constant, generic int, ratio float64, err error) {
	cfg := flow.Config{PlaceEffort: sc.Effort, Seed: sc.Seed}
	spec := firgen.DefaultSpec(firgen.LowPass, sc.Seed)
	coeffs := firgen.Design(spec)
	cn, err := firgen.Generate("fir-const", spec, coeffs)
	if err != nil {
		return 0, 0, 0, err
	}
	support := make([]bool, spec.Taps)
	for i, c := range coeffs {
		support[i] = c != 0
	}
	gn, err := firgen.GenerateGeneric("fir-generic", spec, support)
	if err != nil {
		return 0, 0, 0, err
	}
	mapped, err := flow.MapModes([]*netlist.Netlist{cn, gn}, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	constant = mapped[0].NumBlocks()
	generic = mapped[1].NumBlocks()
	return constant, generic, float64(constant) / float64(generic), nil
}

// AblationResult sets the identity merge (no combined placement) against
// the edge-matching and wire-length merges of a suite's first group.
type AblationResult struct {
	Group *GroupResult // the group's comparison, as the Fig. 5 sweep has it
	// IdentityW is the channel width the identity merge routed on, at
	// least Group's. IdentityErr is set when no attempt routed it;
	// IdentityW and the identity figures are then zero.
	IdentityW    int
	IdentityErr  error
	IdentityBits int     // reconfiguration bits
	IdentityWire float64 // wirelength relative to MDR
}

// FirstComparison runs a suite's first group as the Fig. 5 sweep does:
// the comparison the ablations and the frame outlook summarise.
func FirstComparison(s *Suite, sc Scale) (*flow.Comparison, error) {
	if len(s.Groups) == 0 {
		return nil, fmt.Errorf("experiments: suite %s has no groups", s.Name)
	}
	return flow.RunComparison(groupName(s.Name, s.Groups[0]), groupModes(s, s.Groups[0]), s.config(sc))
}

// RunAblation sets the identity merge against the merges of cmp, the
// suite's FirstComparison. The identity merge runs on the retry ladder
// from cmp's region; when no attempt routes it, the result reports that
// in IdentityErr instead of failing.
func RunAblation(s *Suite, sc Scale, cmp *flow.Comparison) *AblationResult {
	res := &AblationResult{Group: summarize(s, s.Groups[0], cmp)}
	id, region, err := flow.RunDCSIdentity(res.Group.Name, groupModes(s, s.Groups[0]), cmp.Region, s.config(sc))
	if err != nil {
		res.IdentityErr = err
		return res
	}
	res.IdentityW, res.IdentityBits, res.IdentityWire = region.Arch.W, id.ReconfigBits, flow.WireRatio(cmp.MDR, id)
	return res
}

// RunRelaxAblation reruns a suite's first group with no area or channel
// slack (relax=1.0) and summarises it as the sweep does, to set against
// the paper's relax=1.2 of the FirstComparison.
func RunRelaxAblation(s *Suite, sc Scale) (*GroupResult, error) {
	cfg := s.config(sc)
	cfg.RelaxArea, cfg.RelaxW = 1.0, 1.0
	cmp, err := flow.RunComparison(groupName(s.Name, s.Groups[0]), groupModes(s, s.Groups[0]), cfg)
	if err != nil {
		return nil, err
	}
	return summarize(s, s.Groups[0], cmp), nil
}

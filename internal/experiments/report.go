package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/flow"
)

// PrintTableI writes Table I in the paper's layout.
func PrintTableI(w io.Writer, rows []SizeRow) {
	fmt.Fprintln(w, "TABLE I: Size of the LUT circuits used in the experiments.")
	fmt.Fprintf(w, "%-8s %8s %8s %8s\n", "", "Minimum", "Average", "Maximum")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %8d %8d\n", r.Suite, r.Min, r.Avg, r.Max)
	}
}

// PrintFig5 writes the reconfiguration speed-up series of Fig. 5.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Fig. 5: Reconfiguration speed up of DCS compared to MDR (MDR = 1.0x).")
	fmt.Fprintf(w, "%-8s %28s %28s\n", "", "DCS-Edge matching", "DCS-Wire length")
	fmt.Fprintf(w, "%-8s %8s %9s %9s %8s %9s %9s\n", "", "min", "avg", "max", "min", "avg", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7.2fx %8.2fx %8.2fx %7.2fx %8.2fx %8.2fx\n",
			r.Suite,
			r.EdgeMatch.Min, r.EdgeMatch.Avg, r.EdgeMatch.Max,
			r.WireLen.Min, r.WireLen.Avg, r.WireLen.Max)
	}
}

// PrintFig6 writes the LUT/routing contribution breakdown of Fig. 6.
func PrintFig6(w io.Writer, bars []Fig6Bar) {
	fmt.Fprintln(w, "Fig. 6: Relative contribution of LUTs and routing in the reconfiguration time.")
	fmt.Fprintf(w, "%-14s %12s %14s %10s %10s\n", "", "LUT bits", "routing bits", "LUT %", "routing %")
	for _, b := range bars {
		fmt.Fprintf(w, "%-14s %12.0f %14.0f %9.1f%% %9.1f%%\n",
			b.Label, b.LUTBits, b.RoutingBits, 100*b.LUTShare, 100*(1-b.LUTShare))
	}
}

// PrintFig7 writes the wirelength series of Fig. 7.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Fig. 7: Number of wires relative to MDR (MDR = 100%).")
	fmt.Fprintf(w, "%-8s %28s %28s\n", "", "DCS-Edge matching", "DCS-Wire length")
	fmt.Fprintf(w, "%-8s %8s %9s %9s %8s %9s %9s\n", "", "min", "avg", "max", "min", "avg", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7.0f%% %8.0f%% %8.0f%% %7.0f%% %8.0f%% %8.0f%%\n",
			r.Suite,
			100*r.EdgeMatch.Min, 100*r.EdgeMatch.Avg, 100*r.EdgeMatch.Max,
			100*r.WireLen.Min, 100*r.WireLen.Avg, 100*r.WireLen.Max)
	}
}

// PrintArea writes the §IV-C area observations.
func PrintArea(w io.Writer, rows []AreaRow, firConst, firGeneric int, firRatio float64) {
	fmt.Fprintln(w, "Area (SIV-C): multi-mode region vs static side-by-side implementation.")
	fmt.Fprintf(w, "%-8s %14s %14s %8s\n", "", "multi-mode", "static sum", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14.0f %14.0f %7.0f%%\n", r.Suite, r.MultiModeCLBs, r.StaticCLBs, 100*r.Ratio)
	}
	fmt.Fprintf(w, "FIR constant vs generic filter: %d vs %d LUTs (%.0f%% of generic; paper: ~33%%)\n",
		firConst, firGeneric, 100*firRatio)
}

// WriteFigures writes the three group-sweep figures (Fig. 5, Fig. 6 for
// the RegExp suite, Fig. 7) in the fixed report layout. Results are
// consumed in slice order, so for a deterministically ordered result set —
// e.g. the output of Runner.Run at any worker count — the rendered report
// is byte identical.
func WriteFigures(w io.Writer, results []*GroupResult) {
	PrintFig5(w, Fig5(results))
	fmt.Fprintln(w)
	PrintFig6(w, Fig6(results, "RegExp"))
	fmt.Fprintln(w)
	PrintFig7(w, Fig7(results))
}

// PrintGroup writes one group's detailed metrics. For 2-mode groups the
// line is identical to the historical pair rendering.
func PrintGroup(w io.Writer, r *GroupResult) {
	luts := make([]string, len(r.ModeLUTs))
	for i, n := range r.ModeLUTs {
		luts[i] = fmt.Sprintf("%4d", n)
	}
	fmt.Fprintf(w, "%-18s modes %s LUTs  grid %2dx%-2d W=%2d (min %2d)  "+
		"bits MDR=%d Diff=%d EM=%d WL=%d  speedup EM=%.2fx WL=%.2fx  wire EM=%.0f%% WL=%.0f%%\n",
		r.Name, strings.Join(luts, "/"), r.Side, r.Side, r.ChannelW, r.MinW,
		r.MDRBits, r.DiffBits, r.EMBits, r.WLBits,
		r.SpeedupEM, r.SpeedupWL, 100*r.WireEM, 100*r.WireWL)
}

// printMatrix renders one switch-cost matrix with its average and
// worst-case transition. A nil matrix (e.g. bitstream assembly failed for
// the Diff accounting) is reported as such rather than omitted.
func printMatrix(w io.Writer, label string, m flow.SwitchMatrix) {
	if m == nil {
		fmt.Fprintf(w, "  %-18s unavailable\n", label)
		return
	}
	from, to, worst := m.Worst()
	fmt.Fprintf(w, "  %-18s avg %10.1f   worst %8d (%d->%d)\n", label, m.Avg(), worst, from, to)
	m.FprintRows(w, "      ")
}

// PrintSwitchMatrices writes a group's N×N switch-cost matrices (bits
// rewritten per specific mode transition, row = from, column = to) under
// the three accountings: MDR full rewrite, MDR diff (actually differing
// bitstream bits) and DCS (LUT bits + differing parameterised bits).
func PrintSwitchMatrices(w io.Writer, r *GroupResult) {
	fmt.Fprintf(w, "%s: %d-mode switch-cost matrices (bits, row=from col=to)\n", r.Name, r.NumModes())
	printMatrix(w, "MDR full rewrite", r.MDRSwitch)
	printMatrix(w, "MDR diff", r.DiffSwitch)
	printMatrix(w, "DCS parameterised", r.DCSSwitch)
}

// WriteGroupReport writes the multi-mode group report: one detail line and
// the switch-cost matrices per group. Like WriteFigures it consumes the
// results in slice order, so the rendering is deterministic at any worker
// count.
func WriteGroupReport(w io.Writer, results []*GroupResult) {
	fmt.Fprintln(w, "Multi-mode groups: per-switch reconfiguration cost")
	for _, r := range results {
		fmt.Fprintln(w)
		PrintGroup(w, r)
		PrintSwitchMatrices(w, r)
	}
}

// PrintAblation writes the merge-strategy ablation. An identity merge
// that routed on no attempt prints as unroutable, with its error.
func PrintAblation(w io.Writer, a *AblationResult) {
	g := a.Group
	fmt.Fprintf(w, "Ablation %s-abl:\n", g.Suite)
	idW, idBits, idWire := "unroutable", "unroutable", "unroutable"
	if a.IdentityErr == nil {
		idW, idBits, idWire = fmt.Sprintf("W=%d", a.IdentityW), fmt.Sprint(a.IdentityBits), fmt.Sprintf("%.0f%%", 100*a.IdentityWire)
	}
	fmt.Fprintf(w, "  channel width: identity %s, edge-match and wire-length W=%d\n", idW, g.ChannelW)
	fmt.Fprintf(w, "  reconfig bits: identity=%s edge-match=%d wire-length=%d\n", idBits, g.EMBits, g.WLBits)
	fmt.Fprintf(w, "  wire vs MDR:   identity=%s edge-match=%.0f%% wire-length=%.0f%%\n", idWire, 100*g.WireEM, 100*g.WireWL)
	if a.IdentityErr != nil {
		fmt.Fprintf(w, "  identity merge: %v\n", a.IdentityErr)
	}
	// Diff decomposition (§IV-C1): the total speed-up is the region factor
	// (MDR routing bits over differing ones) times the merge factor
	// (differing routing bits over parameterised ones, wire length).
	region, merge := 0.0, 0.0
	if g.DiffRoutingBits > 0 {
		region = float64(g.MDRRoutingBits) / float64(g.DiffRoutingBits)
		merge = float64(g.DiffRoutingBits) / float64(g.WLRoutingBits)
	}
	fmt.Fprintf(w, "  Diff decomposition: region factor %.1fx × merge factor %.1fx\n", region, merge)
}

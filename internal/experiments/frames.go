package experiments

import (
	"fmt"
	"io"

	"repro/internal/flow"
	"repro/internal/frames"
)

// FrameResult is the frame-granularity analysis of one multi-mode group —
// the paper's §IV-C1 outlook ("we expect the speed up of routing
// reconfiguration time to be roughly between 4× and 20×").
type FrameResult struct {
	Suite string
	frames.Report
	// BitSpeedup is the routing-bit speed-up: all MDR routing bits over
	// DCS's parameterised ones.
	BitSpeedup float64
}

// RunFrames evaluates the frame model on cmp, the suite's
// FirstComparison.
func RunFrames(s *Suite, cmp *flow.Comparison, frameSize int) *FrameResult {
	res := &FrameResult{Suite: s.Name, Report: frames.Analyze(cmp.Region.Graph, frameSize,
		cmp.MDR.DiffBits(), cmp.WireLen.TRoute.BitModes, len(cmp.MDR.PerMode))}
	if pr := cmp.WireLen.TRoute.ParamRoutingBits; pr > 0 {
		res.BitSpeedup = float64(cmp.Region.Graph.NumRoutingBits) / float64(pr)
	}
	return res
}

// PrintFrames writes the frame-granularity outlook table.
func PrintFrames(w io.Writer, rows []*FrameResult) {
	fmt.Fprintln(w, "Frame-granularity outlook (SIV-C1): routing reconfiguration speed-up")
	fmt.Fprintln(w, "when only frames containing rewritten bits are reconfigured")
	fmt.Fprintf(w, "%-8s %6s %8s %8s %8s %10s %10s %10s\n",
		"", "fsize", "frames", "diff", "param", "bit-level", "frame-DCS", "frame-Diff")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %8d %8d %8d %9.1fx %9.1fx %9.1fx\n",
			r.Suite, r.FrameSize, r.TotalFrames, r.DiffFrames, r.ParamFrames,
			r.BitSpeedup, r.SpeedupDCS, r.SpeedupDiff)
	}
	fmt.Fprintln(w, "(paper predicts the frame-level routing speed-up lands between ~4x and ~20x)")
}

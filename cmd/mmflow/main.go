// Command mmflow runs the multi-mode tool flow on BLIF mode descriptions:
// it synthesises and maps every mode, sizes a shared reconfigurable
// region, implements the modes with MDR and with the paper's DCS flow
// (combined placement + TPlace + TRoute), and reports reconfiguration-bit
// and wirelength comparisons plus the N×N switch-cost matrix.
//
// With two or more BLIF files it is the N-mode smoke-test tool: any mode
// that fails to place or route makes the command exit non-zero, and -json
// emits the full result (or the failure) as machine-readable JSON on
// stdout.
//
// The compilation itself is internal/service's Compile — the same engine
// mmserved exposes over HTTP. -remote URL submits the modes to a running
// mmserved instead of compiling locally (same request, same response
// schema), and -cachedir backs the local run with a persistent artifact
// store so placements computed today are reused tomorrow.
//
// Usage:
//
//	mmflow [-k 4] [-effort 0.5] [-refinefrac 0.1] [-seed 1] [-objective wire|edge]
//	       [-starts 4] [-json] [-cachedir DIR]
//	       [-remote http://host:8433] mode1.blif mode2.blif [...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	k := flag.Int("k", 4, "LUT inputs")
	effort := flag.Float64("effort", 0.5, "annealing effort (1.0 = VPR-like)")
	refineFrac := flag.Float64("refinefrac", 0, "TPlace refinement opening-temperature fraction (0 = kernel default 0.1)")
	seed := flag.Int64("seed", 1, "random seed")
	objective := flag.String("objective", "wire", "combined-placement objective: wire or edge")
	starts := flag.Int("starts", 1, "independently seeded anneals per placement, best kept (changes results)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout")
	verbose := flag.Bool("v", false, "print per-connection activation functions (local runs only)")
	cachedir := flag.String("cachedir", "", "persistent artifact-store directory for placements (local runs)")
	baseline := flag.String("baseline", "", "baseline key of a prior compile (needs -cachedir): recompile as an ECO delta, falling back to a cold compile if the baseline is unusable")
	remote := flag.String("remote", "", "delegate compilation to a running mmserved (e.g. http://localhost:8433)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the flow stages to this file (local runs only; open with chrome://tracing or Perfetto)")
	flag.Parse()

	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "mmflow: need at least two BLIF mode files")
		flag.Usage()
		os.Exit(2)
	}

	req := &service.CompileRequest{
		K: *k, Effort: *effort, RefineFrac: *refineFrac, Seed: *seed, Objective: *objective,
		Starts: *starts, BaselineKey: *baseline,
	}
	for _, path := range flag.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fail(*jsonOut, nil, err)
		}
		req.Modes = append(req.Modes, service.Mode{BLIF: string(text)})
	}

	var res *service.Result
	var cmp *flow.Comparison
	var err error
	if *remote != "" {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "mmflow: -trace is local-only (the daemon does not ship span data); ignoring")
		}
		res, err = compileRemote(*remote, req)
	} else {
		cache := flow.NewCache()
		if *cachedir != "" {
			st, serr := store.Open(*cachedir, 0)
			if serr != nil {
				fail(*jsonOut, nil, serr)
			}
			cache = flow.NewCacheWithStore(st)
		}
		var tr *obs.Trace
		if *traceFile != "" {
			tr = obs.NewTrace()
		}
		res, cmp, err = service.CompileEnv(req, service.Env{Cache: cache, Trace: tr})
		if terr := writeTrace(*traceFile, tr); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		fail(*jsonOut, res, err)
	}

	if *jsonOut {
		emit(res)
		return
	}
	render(res)
	if *verbose {
		if cmp == nil {
			fmt.Fprintln(os.Stderr, "mmflow: -v needs a fresh local run (remote and warm-cached results carry no tunable-circuit internals)")
		} else {
			dcs := cmp.WireLen
			if res.DCS != nil && res.DCS.Objective == "edge-match" {
				dcs = cmp.EdgeMatch
			}
			fmt.Println("tunable connections:")
			nm := dcs.Merge.Tunable.NumModes
			for _, cn := range dcs.Merge.Tunable.Conns {
				fmt.Printf("  %v -> %v  activation %s\n", cn.Src, cn.Dst, cn.Act.Expression(nm))
			}
		}
	}
}

// writeTrace dumps the trace as Chrome trace-event JSON. A nil trace (or
// empty path) is a no-op, so callers can invoke it unconditionally.
func writeTrace(path string, tr *obs.Trace) error {
	if path == "" || tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compileRemote submits the request to a running mmserved and decodes the
// shared response schema.
func compileRemote(base string, req *service.CompileRequest) (*service.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 30 * time.Minute} // full-effort compiles are slow
	resp, err := client.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", base, err)
	}
	var res service.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("remote %s: status %d: %s", base, resp.StatusCode, data)
	}
	if res.Error != "" {
		return &res, fmt.Errorf("remote %s: %s", base, res.Error)
	}
	if resp.StatusCode != http.StatusOK {
		return &res, fmt.Errorf("remote %s: status %d", base, resp.StatusCode)
	}
	return &res, nil
}

// render prints the human-readable report from the wire-schema result —
// remote and local runs produce identical output by construction.
func render(res *service.Result) {
	for i, m := range res.Modes {
		fmt.Printf("mode %d (%s): %d LUTs, %d FFs, %d PIs, %d POs\n",
			i, m.Name, m.LUTs, m.FFs, m.PIs, m.POs)
	}
	if res.Region == nil || res.MDR == nil || res.DCS == nil {
		return
	}
	fmt.Printf("region: %dx%d CLBs, channel width %d (min %d), %d routing bits, %d LUT bits\n",
		res.Region.Side, res.Region.Side, res.Region.ChannelW, res.Region.MinW,
		res.Region.RoutingBits, res.Region.LUTBits)
	fmt.Printf("MDR: reconfig %d bits (whole region), avg mode wirelength %.0f segments\n",
		res.MDR.ReconfigBits, res.MDR.AvgWire)
	fmt.Printf("DCS (%s): %d TLUTs, %d tunable connections (%d shared across all modes)\n",
		res.DCS.Objective, res.DCS.TLUTs, res.DCS.Conns, res.DCS.SharedConns)
	fmt.Printf("DCS: reconfig %d bits (%d LUT + %d parameterised routing), avg mode wirelength %.0f\n",
		res.DCS.ReconfigBits, res.Region.LUTBits, res.DCS.ParamRoutingBits, res.DCS.AvgWire)
	fmt.Printf("speed-up vs MDR: %.2fx   wirelength vs MDR: %.0f%%\n",
		res.SpeedupVsMDR, 100*res.WireVsMDR)
	if ri := res.Routing; ri != nil {
		fmt.Printf("router: %d iterations, %d reroutes over %d connections, peak overuse %d\n",
			ri.Iterations, ri.Rerouted, ri.Connections, ri.PeakOveruse)
	}
	if d := res.Delta; d != nil {
		if d.BaselineMiss {
			fmt.Println("delta: baseline unusable, compiled cold")
		} else {
			fmt.Printf("delta: %d placements reused, %d transferred, %d nets warm-routed\n",
				d.ReusedModes, d.PlaceTransfers, d.WarmRouteNets)
		}
	}
	if res.BaselineKey != "" {
		fmt.Printf("baseline key: %s\n", res.BaselineKey)
	}
	if len(res.Timings) > 0 {
		fmt.Printf("stages:")
		for _, st := range res.Timings {
			fmt.Printf(" %s %.0fms", st.Stage, st.Millis)
			if st.Count > 1 {
				fmt.Printf(" (x%d)", st.Count)
			}
		}
		fmt.Println()
	}
	if sw := res.SwitchCost; sw != nil {
		if sw.MDRDiff == nil {
			fmt.Fprintf(os.Stderr, "mmflow: diff switch matrix unavailable: %s\n", sw.MDRDiffError)
		}
		printMatrix("MDR diff", sw.MDRDiff)
		printMatrix("DCS", sw.DCS)
	}
}

func printMatrix(label string, m flow.SwitchMatrix) {
	if m == nil {
		return
	}
	from, to, worst := m.Worst()
	fmt.Printf("%s switch cost: avg %.1f bits, worst %d (%d->%d)\n", label, m.Avg(), worst, from, to)
	m.FprintRows(os.Stdout, "  ")
}

// fail reports an error and exits non-zero; under -json the error rides
// in the result document on stdout (with any partial fields the flow
// produced before failing).
func fail(jsonOut bool, res *service.Result, err error) {
	if jsonOut {
		if res == nil {
			res = &service.Result{}
		}
		if res.Error == "" {
			res.Error = err.Error()
		}
		emit(res)
	} else {
		fmt.Fprintln(os.Stderr, "mmflow:", err)
	}
	os.Exit(1)
}

func emit(res *service.Result) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "mmflow:", err)
		os.Exit(1)
	}
}

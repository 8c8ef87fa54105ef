// Command mmbench reproduces the evaluation section of the paper: Table I,
// Fig. 5 (reconfiguration speed-up), Fig. 6 (LUT/routing breakdown),
// Fig. 7 (wirelength vs MDR), the §IV-C area observations, and the merge
// ablations — and, beyond the paper, the multi-mode group sweep (`-exp
// multi`): suites whose groups hold 3–4 modes, reported with the N×N
// switch-cost matrix (bits rewritten per specific mode transition).
//
// The benchmark × group sweep — the dominant cost — runs on a worker pool
// (-j N, default GOMAXPROCS); the jobs are independent, the workers share
// one immutable routing-resource graph cache, and the report is
// byte-identical at any worker count. Progress is reported on stderr.
//
// Usage:
//
//	mmbench -exp all|table1|fig5|fig6|fig7|area|ablation|frames|multi [-j 8]
//	        [-starts 4] [-groups 4] [-effort 0.4] [-seed 1] [-full]
//	        [-cachedir DIR] [-cachemb MB]
//
// With -cachedir the sweep runs against a persistent content-addressed
// artifact store: a warm re-run reads every group result back whole and
// renders the byte-identical report while skipping every graph build,
// annealing and routing step, and the end-of-run cache summary on stderr
// shows exactly what was reused.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/store"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig5, fig6, fig7, area, ablation, frames, multi")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the group sweep")
	starts := flag.Int("starts", 1, "independently seeded anneals per placement, best kept (changes results)")
	groups := flag.Int("groups", 4, "multi-mode groups per suite (paper: 10)")
	effort := flag.Float64("effort", 0.4, "annealing effort")
	seed := flag.Int64("seed", 1, "random seed")
	full := flag.Bool("full", false, "paper-scale run (all 30 groups, effort 0.5)")
	verbose := flag.Bool("v", false, "print per-group details")
	cachedir := flag.String("cachedir", "", "persistent artifact-store directory: whole group results survive the process, so a re-run of the same sweep reads its group results back and skips all graph building, annealing and routing (the ablation experiments store nothing and recompute)")
	cachemb := flag.Int64("cachemb", 0, "artifact-store size cap in MiB (0: uncapped)")
	remotestore := flag.String("remotestore", "", "base URL of a shared remote artifact store (mmstored); local misses fall through to it and results are pushed back")
	logjson := flag.Bool("logjson", false, "emit the stderr progress/summary lines as structured JSON logs")
	flag.Parse()

	// All progress and summary chatter goes through this stderr logger;
	// the report on stdout stays byte-identical either way (CI diffs it).
	if *logjson {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	sc := experiments.Scale{
		GroupsPerSuite: *groups, Effort: *effort, Seed: *seed,
		PlaceStarts: *starts,
	}
	if *full {
		// Paper-scale defaults; explicitly set flags still win, so e.g.
		// `-full -effort 1.0` raises the annealing effort threaded through
		// experiments into flow.Config.PlaceEffort and the anneal kernel.
		sc = experiments.FullScale()
		sc.PlaceStarts = *starts
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "groups":
				sc.GroupsPerSuite = *groups
			case "effort":
				sc.Effort = *effort
			case "seed":
				sc.Seed = *seed
			}
		})
	}
	// One cache for the whole invocation: the figure sweep, the area pass
	// and the ablations reuse each other's graphs and placements in
	// memory. With -cachedir the cache gains a persistent tier — the
	// second identical invocation serves every group result straight from
	// the store.
	if *cachedir == "" && *remotestore != "" {
		// The remote tier write-through needs a local store to land in.
		tmp, err := os.MkdirTemp("", "mmbench-cache-")
		if err != nil {
			fatal(err)
		}
		tempStore = tmp
		defer os.RemoveAll(tmp)
		*cachedir = tmp
	}
	if *cachedir != "" {
		st, err := store.Open(*cachedir, *cachemb<<20)
		if err != nil {
			fatal(err)
		}
		if *remotestore != "" {
			st.AttachRemote(store.NewRemote(*remotestore, 0))
		}
		sc.Cache = flow.NewCacheWithStore(st)
	} else {
		sc.Cache = flow.NewCache()
	}
	// The traffic summary lands on stderr so report output stays
	// byte-identical whether or not anyone is watching the cache.
	defer func() {
		logger.Info("cache", "stats", sc.Cache.Stats().String())
	}()

	start := time.Now()

	if *exp == "multi" {
		runMulti(sc, *jobs)
		fmt.Printf("\n# total runtime %v\n", time.Since(start).Round(time.Second))
		return
	}

	suites, err := experiments.BuildSuites(sc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# benchmark suites generated in %v (scale: %d groups/suite, effort %.2f)\n\n",
		time.Since(start).Round(time.Millisecond), sc.GroupsPerSuite, sc.Effort)

	if *exp == "table1" || *exp == "all" {
		experiments.PrintTableI(os.Stdout, experiments.TableI(suites))
		fmt.Println()
		if *exp == "table1" {
			return
		}
	}

	needSweep := map[string]bool{"all": true, "fig5": true, "fig6": true, "fig7": true}
	var results []*experiments.GroupResult
	if needSweep[*exp] {
		results = sweep(suites, sc, *jobs, *verbose)
	}

	switch *exp {
	case "all":
		experiments.WriteFigures(os.Stdout, results)
		fmt.Println()
		printArea(suites, sc)
		fmt.Println()
		p := &progress{total: 2*len(suites) + 1}
		cmps := firstComparisons(suites, sc, p)
		printAblation(suites, sc, cmps, p)
		fmt.Println()
		printFrames(suites, cmps)
	case "fig5":
		experiments.PrintFig5(os.Stdout, experiments.Fig5(results))
	case "fig6":
		experiments.PrintFig6(os.Stdout, experiments.Fig6(results, "RegExp"))
	case "fig7":
		experiments.PrintFig7(os.Stdout, experiments.Fig7(results))
	case "area":
		printArea(suites, sc)
	case "ablation":
		p := &progress{total: 2*len(suites) + 1}
		printAblation(suites, sc, firstComparisons(suites, sc, p), p)
	case "frames":
		printFrames(suites, firstComparisons(suites, sc, &progress{total: len(suites)}))
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	fmt.Printf("\n# total runtime %v\n", time.Since(start).Round(time.Second))
}

// sweep runs the benchmark × group sweep with stderr progress and returns
// the results in enumeration order.
func sweep(suites []*experiments.Suite, sc experiments.Scale, jobs int, verbose bool) []*experiments.GroupResult {
	total := 0
	for _, s := range suites {
		total += len(s.Groups)
	}
	sweepStart := time.Now()
	var started atomic.Int32
	results, err := experiments.RunAll(suites, sc, jobs, func(msg string) {
		logger.Info("running", "n", started.Add(1), "total", total, "group", msg)
	})
	if err != nil {
		fatal(err)
	}
	logger.Info("sweep done", "groups", total, "workers", jobs,
		"elapsed", time.Since(sweepStart).Round(time.Millisecond).String())
	// Router work summary, on stderr like the cache stats so the report
	// itself stays byte-identical. Warm store runs decode the same numbers
	// the cold run computed.
	iters, rerouted, peak := 0, 0, 0
	for _, r := range results {
		iters += r.RouteIters
		rerouted += r.RerouteConns
		if r.PeakOveruse > peak {
			peak = r.PeakOveruse
		}
	}
	logger.Info("route summary", "iterations", iters, "reroutes", rerouted, "peak_overuse", peak)
	if verbose {
		for _, r := range results {
			experiments.PrintGroup(os.Stdout, r)
		}
		fmt.Println()
	}
	return results
}

// runMulti evaluates the ≥3-mode group suites and reports the per-switch
// cost matrices alongside the familiar figure summaries. The group report
// always includes the per-group detail lines, so the sweep's own verbose
// printing stays off.
func runMulti(sc experiments.Scale, jobs int) {
	buildStart := time.Now()
	suites, err := experiments.BuildMultiSuites(sc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# multi-mode suites generated in %v (effort %.2f)\n\n",
		time.Since(buildStart).Round(time.Millisecond), sc.Effort)
	experiments.PrintTableI(os.Stdout, experiments.TableI(suites))
	fmt.Println()

	results := sweep(suites, sc, jobs, false)
	experiments.WriteGroupReport(os.Stdout, results)
	fmt.Println()
	experiments.PrintFig5(os.Stdout, experiments.Fig5(results))
}

func printArea(suites []*experiments.Suite, sc experiments.Scale) {
	rows := experiments.AreaSavings(suites)
	c, g, ratio, err := experiments.FIRGenericRatio(sc)
	if err != nil {
		fatal(err)
	}
	experiments.PrintArea(os.Stdout, rows, c, g, ratio)
}

// progress numbers the `running` lines of the serial report steps after
// the sweep, in the sweep's own format.
type progress struct{ n, total int }

func (p *progress) step(msg string) {
	p.n++
	logger.Info("running", "n", p.n, "total", p.total, "group", msg)
}

// firstComparisons runs each suite's first-group comparison once, for
// the ablations and the frame outlook to share.
func firstComparisons(suites []*experiments.Suite, sc experiments.Scale, p *progress) []*flow.Comparison {
	cmps := make([]*flow.Comparison, len(suites))
	for i, s := range suites {
		p.step(experiments.GroupLabel(s, s.Groups[0]) + " comparison")
		var err error
		if cmps[i], err = experiments.FirstComparison(s, sc); err != nil {
			fatal(err)
		}
	}
	return cmps
}

func printAblation(suites []*experiments.Suite, sc experiments.Scale, cmps []*flow.Comparison, p *progress) {
	var relaxed *experiments.GroupResult
	for i, s := range suites {
		p.step(experiments.GroupLabel(s, s.Groups[0]) + " identity merge")
		a := experiments.RunAblation(s, sc, cmps[i])
		experiments.PrintAblation(os.Stdout, a)
		if i == 0 {
			relaxed = a.Group
		}
	}
	p.step(experiments.GroupLabel(suites[0], suites[0].Groups[0]) + " relax=1.0")
	tight, err := experiments.RunRelaxAblation(suites[0], sc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Relaxation ablation (RegExp group 0): relax=1.2 speedup %.2fx wire %.0f%%; relax=1.0 speedup %.2fx wire %.0f%%\n",
		relaxed.SpeedupWL, 100*relaxed.WireWL, tight.SpeedupWL, 100*tight.WireWL)
}

func printFrames(suites []*experiments.Suite, cmps []*flow.Comparison) {
	var rows []*experiments.FrameResult
	for i, s := range suites {
		rows = append(rows, experiments.RunFrames(s, cmps[i], 64))
	}
	experiments.PrintFrames(os.Stdout, rows)
}

// logger carries every stderr line; main replaces it before any output.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// tempStore is main's -remotestore temporary store; fatal removes it.
var tempStore string

func fatal(err error) {
	logger.Error("fatal", "err", err)
	if tempStore != "" {
		os.RemoveAll(tempStore)
	}
	os.Exit(1)
}

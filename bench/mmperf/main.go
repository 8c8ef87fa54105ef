// Command mmperf is this repository's benchmark: it drives the compile
// service through its public entry points on three workloads, checks every
// output against an independent oracle, and prints the end-to-end metrics
// by name with units (or, with -trace 1, the per-layer breakdown).
//
//	cold-compile  paper-family groups compiled from an empty store
//	delta-eco     one-row ECO edits recompiled against stored baselines
//	warm-serve    a real mmserved answering precompiled requests
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-tracedir DIR] [-runs N] [-out DIR]
//	bash bench/run.sh compare [-benchmark FILE] OLD NEW
//
// The last stdout line is a JSON summary: correct, attempted, failed and
// the metrics. A failed check exits 1. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// options configure one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string
	workDir   string
	size      size
	setupReps int
	tr        *obs.Trace   // the run's span sink when tracing, else nil
	speed     *speedometer // the run's calibration timings
}

// workloads, in the order `-workload all` runs them. The reasons are
// BENCHMARK.json's.
var workloads = []struct {
	name string
	run  func(options, *record) error
}{
	// The paper's actual work: synth, sizing, place, merge, TPlace and
	// TRoute with its channel-widening retries, bitstream, store writes.
	{"cold-compile", runCold},
	// The ECO loop: sizing bypassed, most annealing skipped, store reads
	// and warm routing, and the fallbacks when the warm route fails.
	{"delta-eco", runDelta},
	// Serving precompiled requests: HTTP, JSON, BLIF parsing, request
	// hashing and artifact-store reads, no flow at all.
	{"warm-serve", runWarm},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("mmperf", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, cold-compile, delta-eco or warm-serve")
	seed := fs.Int64("seed", 1, "run seed: orders the operations (and the simulation vectors) of the run")
	seconds := fs.Float64("seconds", 20, "measured time per run; compile workloads measure whole passes over their inputs")
	trace := fs.Int("trace", 0, "1: make the traced run and print the per-layer metrics instead")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "traces"), "directory for the traced run's Chrome traces")
	runs := fs.Int("runs", 1, "runs per workload, at seeds seed, seed+1, ...; each run is its own process")
	out := fs.String("out", "", "directory to keep every run's full record in (for mmperf compare)")
	recordPath := fs.String("record", "", "file to write this single run's full record to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mmperf: -trace must be 0 or 1, -runs and -seconds positive")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "mmperf: unknown workload %q\n", *workload)
		return 2
	}
	o := options{
		workload: names[0], seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, size: full, setupReps: 3,
	}
	if len(names) == 1 && *runs == 1 && *out == "" {
		return single(o, *recordPath)
	}
	return multi(names, o, *runs, *out)
}

// single runs one workload in this process and prints its result.
func single(o options, recordPath string) int {
	workDir := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mmperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir
	rec := runWorkload(o)
	if recordPath != "" {
		if err := rec.write(recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "mmperf:", err)
			return 1
		}
	}
	printTable(os.Stdout, rec)
	if err := json.NewEncoder(os.Stdout).Encode(rec.summary()); err != nil {
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its record; any failure marks
// it incorrect.
func runWorkload(o options) *record {
	rec := newRecord(o.workload, o)
	if o.trace {
		o.tr = obs.NewTrace()
	}
	o.speed = newSpeedometer()
	t0 := time.Now()
	for _, w := range workloads {
		if w.name == o.workload {
			if err := w.run(o, rec); err != nil {
				rec.fail("%v", err)
			}
		}
	}
	rec.WallS = time.Since(t0).Seconds()
	if len(o.speed.ms) > 0 {
		rec.CalMs = o.speed.median()
		scaleTimes(rec, o.speed.scale())
	}
	if o.trace {
		// The traced run reports the per-layer metrics only; its set-up and
		// latencies are perturbed by tracing.
		for _, d := range endToEnd {
			delete(rec.Metrics, d.Name)
		}
	}
	if rec.Attempted == 0 {
		rec.Attempted = 1 // the set-up was the attempt that failed
	}
	rec.Correct = rec.Failed == 0
	return rec
}

// multi runs each (workload, run) as a child process of this binary, so
// each one's peak RSS and CPU time are its own, keeping every record in
// out (or a temporary directory). With -trace 1 it adds one traced run per
// workload after the untraced ones.
func multi(names []string, o options, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmperf:", err)
		return 1
	}
	dir := out
	if dir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mmperf:", err)
			return 1
		}
		if dir, err = os.MkdirTemp(".bench_build", "records-"); err != nil {
			fmt.Fprintln(os.Stderr, "mmperf:", err)
			return 1
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mmperf:", err)
		return 1
	}
	type job struct {
		workload string
		seed     int64
		trace    bool
	}
	var jobs []job
	for _, w := range names {
		for i := 0; i < runs; i++ {
			jobs = append(jobs, job{w, o.seed + int64(i), false})
		}
		if o.trace {
			jobs = append(jobs, job{w, o.seed, true})
		}
	}
	total := map[string]any{}
	correct, attempted, failed := true, 0, 0
	for _, j := range jobs {
		name := fmt.Sprintf("%s-seed%d", j.workload, j.seed)
		trace := "0"
		if j.trace {
			name += "-trace"
			trace = "1"
		}
		path := filepath.Join(dir, name+".json")
		cmd := exec.Command(self, "-workload", j.workload, "-seed", fmt.Sprint(j.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-tracedir", o.traceDir, "-record", path)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		_ = cmd.Run() // a failed run is read back from its record; a missing record is the failure
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmperf: %s: no record: %v\n", name, err)
			correct = false
			failed++
			continue
		}
		printTable(os.Stdout, rec)
		correct = correct && rec.Correct
		attempted += rec.Attempted
		failed += rec.Failed
		for k, m := range rec.Metrics {
			total[name+"."+k] = m
		}
	}
	summary := map[string]any{"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": total}
	if err := json.NewEncoder(os.Stdout).Encode(summary); err != nil || !correct {
		return 1
	}
	return 0
}

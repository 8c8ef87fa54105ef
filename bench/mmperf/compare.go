package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads run records from files or directories of *.json.
func loadRecords(path string) ([]*record, error) {
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var recs []*record
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return nil, err
		}
		if r.Workload != "" {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}

// verdict classifies NEW against OLD for one metric. Worse: the median
// moved the wrong way by more than the bound. Improved: it moved the right
// way by more than OLD's quartile spread, with NEW better in at least 9
// of 10 (old, new) pairs. Unresolved: either side's spread exceeds the
// bound and NEW is not better in every pair. Otherwise unchanged.
func verdict(old, cur []float64, better string, bound float64) (string, float64) {
	q1o, mo, q3o := quartiles(old)
	q1n, mn, q3n := quartiles(cur)
	if mo == 0 {
		if mn == 0 {
			return "unchanged", 0
		}
		return "unresolved", math.Inf(1)
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (mn - mo) / math.Abs(mo)
	spread := math.Max((q3o-q1o)/math.Abs(mo), (q3n-q1n)/math.Abs(mn))
	wins, pairs := 0, 0
	for _, o := range old {
		for _, n := range cur {
			pairs++
			if sign*(n-o) < 0 {
				wins++
			}
		}
	}
	winShare := float64(wins) / float64(pairs)
	switch {
	case worse > bound:
		return "worse", worse
	case -worse > (q3o-q1o)/math.Abs(mo) && winShare >= 0.9:
		return "improved", worse
	case spread > bound && winShare < 1:
		return "unresolved", worse
	}
	return "unchanged", worse
}

// runCompare is `mmperf compare OLD NEW`.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mmperf compare [-benchmark FILE] OLD NEW (record files or directories)")
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmperf compare:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "mmperf compare: %s: %v\n", *benchPath, err)
		return 2
	}
	old, err := loadRecords(fs.Arg(0))
	if err == nil {
		var cur []*record
		if cur, err = loadRecords(fs.Arg(1)); err == nil {
			return compareRecords(bf, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "mmperf compare:", err)
	return 2
}

func compareRecords(bf benchmarkFile, old, cur []*record) int {
	worse := 0
	byKey := func(recs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range recs {
			k := r.Workload
			if r.Trace {
				k += " (traced)"
			}
			m[k] = append(m[k], r)
		}
		return m
	}
	om, nm := byKey(old), byKey(cur)
	var keys []string
	for k := range om {
		if _, ok := nm[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-14s %-20s %-7s %28s %28s %8s %6s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "worse", "bound", "verdict")
	for _, k := range keys {
		if strings.HasSuffix(k, "(traced)") {
			continue
		}
		for _, m := range bf.EndToEnd {
			ov, nv := values(om[k], m.Name), values(nm[k], m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, w := verdict(ov, nv, m.Better, m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-20s %-7s %28s %28s %+7.1f%% %5.0f%%  %s\n", k, m.Name, m.Unit,
				quartileString(ov), quartileString(nv), 100*w, 100*m.Bound, v)
		}
	}
	moved := false
	for _, k := range keys {
		for _, line := range counterDiff(om[k], nm[k]) {
			moved = true
			fmt.Printf("%-14s %s\n", k, line)
		}
	}
	if moved {
		fmt.Println("note: deterministic counters or QoR moved, so the program's results moved;" +
			" the change must bump the artifact versions (codec.PlacementVersion," +
			" experiments.groupResultVersion, service.resultVersion) that cover them.")
	} else {
		fmt.Println("deterministic counters and QoR: identical")
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func values(recs []*record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func quartileString(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

// counterDiff lists every deterministic counter that differs between or
// within the two sides.
func counterDiff(old, cur []*record) []string {
	names := map[string]bool{}
	for _, r := range append(append([]*record(nil), old...), cur...) {
		for k := range r.Counters {
			names[k] = true
		}
	}
	var sorted []string
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	distinct := func(recs []*record, k string) []float64 {
		seen := map[float64]bool{}
		var out []float64
		for _, r := range recs {
			if v, ok := r.Counters[k]; ok && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Float64s(out)
		return out
	}
	var lines []string
	for _, k := range sorted {
		o, n := distinct(old, k), distinct(cur, k)
		switch {
		case len(o) > 1 || len(n) > 1:
			lines = append(lines, fmt.Sprintf("%-26s varies between runs of one side: old %v new %v", k, o, n))
		case len(o) == 1 && len(n) == 1 && o[0] != n[0]:
			lines = append(lines, fmt.Sprintf("%-26s moved %v -> %v", k, o[0], n[0]))
		}
	}
	return lines
}

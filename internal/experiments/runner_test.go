package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/flow"
	"repro/internal/gen/regexgen"
	"repro/internal/netlist"
)

// tinySuites builds a fast two-suite workload (small regex engines) for
// runner tests: 2 suites × 2 pairs = 4 jobs.
func tinySuites(t *testing.T, sc Scale) []*Suite {
	t.Helper()
	cfg := flow.Config{PlaceEffort: sc.Effort, Seed: sc.Seed}
	mk := func(suiteName string, patterns []string) *Suite {
		var nls []*netlist.Netlist
		for i, p := range patterns {
			n, err := regexgen.Generate(fmt.Sprintf("%s%d", suiteName, i), p, regexgen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			nls = append(nls, n)
		}
		circuits, err := flow.MapModes(nls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &Suite{Name: suiteName, Circuits: circuits, Groups: [][]int{{0, 1}, {0, 2}}}
	}
	return []*Suite{
		mk("RegExp", []string{`GET /(a|b)x+`, `POST /(c|d)y+`, `PUT /(e|f)z+`}),
		mk("Tiny", []string{`ab(c|d)e`, `fg(h|i)j`, `kl(m|n)o`}),
	}
}

// TestRunnerDeterministicAcrossWorkerCounts runs the same sweep serially
// and on a wide pool and demands identical results — both the structured
// metrics and the rendered report, byte for byte. Under -race this also
// exercises the shared cache and shared suites concurrently.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := Scale{Effort: 0.1, Seed: 1}
	suites := tinySuites(t, sc)

	var serial []*GroupResult
	for _, workers := range []int{1, 8} {
		sc := sc
		sc.Cache = flow.NewCache()
		got, err := (&Runner{Workers: workers}).Run(suites, sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 4 {
			t.Fatalf("workers=%d: %d results, want 4", workers, len(got))
		}
		for i, r := range got {
			wantSuite := suites[i/2].Name
			if r.Suite != wantSuite {
				t.Fatalf("workers=%d: result %d from suite %s, want %s (ordering broken)",
					workers, i, r.Suite, wantSuite)
			}
		}
		if workers == 1 {
			serial = got
			continue
		}
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: results differ from serial run", workers)
		}
		var a, b bytes.Buffer
		WriteFigures(&a, serial)
		WriteFigures(&b, got)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("workers=%d: rendered report differs from serial run", workers)
		}
	}
}

// TestRunAllProgressOrder: with one worker, RunAll reports progress once
// per group, in enumeration order.
func TestRunAllProgressOrder(t *testing.T) {
	sc := Scale{Effort: 0.1, Seed: 1}
	suites := tinySuites(t, sc)

	var msgs []string
	if _, err := RunAll(suites[:1], sc, 1, func(m string) { msgs = append(msgs, m) }); err != nil {
		t.Fatal(err)
	}
	wantMsgs := []string{"RegExp group (0,1)", "RegExp group (0,2)"}
	if !reflect.DeepEqual(msgs, wantMsgs) {
		t.Fatalf("progress = %v, want %v", msgs, wantMsgs)
	}
}

// TestRunnerSharedGraphsUnmutated is the regression test for RRG sharing:
// after a concurrent sweep in which every worker routed over the cached
// graphs, each graph must still checksum identically to a freshly built
// copy of the same architecture.
func TestRunnerSharedGraphsUnmutated(t *testing.T) {
	sc := Scale{Effort: 0.1, Seed: 1, Cache: flow.NewCache()}
	suites := tinySuites(t, sc)
	if _, err := (&Runner{Workers: 4}).Run(suites, sc); err != nil {
		t.Fatal(err)
	}
	graphs := sc.Cache.Graphs()
	if len(graphs) == 0 {
		t.Fatal("sweep left no graphs in the shared cache")
	}
	for _, g := range graphs {
		fresh := arch.BuildGraph(g.Arch)
		if g.Checksum() != fresh.Checksum() {
			t.Errorf("shared graph for %dx%d W=%d was mutated during the sweep",
				g.Arch.Width, g.Arch.Height, g.Arch.W)
		}
	}
}

package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/logic"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// comparisonBytes encodes what a comparison returns — its baseline
// artifact (placements and routed trees of every mode and merge) and its
// figures — for byte-identity checks.
func comparisonBytes(t *testing.T, cmp *Comparison, circuits []*lutnet.Circuit) []byte {
	t.Helper()
	buf := mustEncodeBaseline(t, BuildBaseline(cmp, circuits))
	return fmt.Appendf(buf, "%d %d %d %d %v %v %d %d",
		cmp.Region.Arch.W, cmp.Region.MinW, cmp.MDR.ReconfigBits, cmp.MDR.DiffRoutingBits,
		cmp.EdgeMatch.AvgWire, cmp.WireLen.AvgWire,
		cmp.EdgeMatch.ReconfigBits, cmp.WireLen.ReconfigBits)
}

// prefetchedSpans counts the spans of each stage that waited for the
// placement helper.
func prefetchedSpans(t *testing.T, tr *obs.Trace) map[string]int {
	t.Helper()
	n := map[string]int{}
	for _, ev := range chromeEvents(t, tr) {
		if ev.Args["prefetched"] == "true" {
			n[ev.Name]++
		}
	}
	return n
}

// checkPoolIdle fails unless every core of the process's pool is free,
// as it is between compiles.
func checkPoolIdle(t *testing.T) {
	t.Helper()
	cores.mu.Lock()
	defer cores.mu.Unlock()
	if cores.used != 0 {
		t.Fatalf("%d pool cores in use after the compile returned", cores.used)
	}
}

// helperRuns bounds the runs a test makes to see the placement helper
// serve the placements it expects. The helper races the compile for each
// memo entry, and on a loaded machine its goroutine can start after the
// compile has claimed one; every run must still return the serial result.
const helperRuns = 5

// TestHelperByteIdentical: a comparison that needs a widening is
// byte-identical whether its DCS placements come from the placement
// helper (GOMAXPROCS=2, a core idle) or from the attempts themselves
// (GOMAXPROCS=1, and GOMAXPROCS=2 with the pool saturated). With the
// helper, the first attempt records one merge and one tplace span per
// objective over its wait; without it, none is prefetched.
func TestHelperByteIdentical(t *testing.T) {
	circuits := mcncPair(t, 5, 6, 80)
	var sums []codec.Hash
	for _, c := range []struct {
		name              string
		procs             int
		saturated, helped bool
	}{
		{"GOMAXPROCS=1", 1, false, false},
		{"GOMAXPROCS=2", 2, false, true},
		{"GOMAXPROCS=2, pool saturated", 2, true, false},
	} {
		want := map[string]int{}
		if c.helped {
			want = map[string]int{"merge": 2, "tplace": 2}
		}
		var got map[string]int
		for run := 0; run < helperRuns; run++ {
			prev := runtime.GOMAXPROCS(c.procs)
			if c.saturated {
				cores.acquire() // another compile holds the second core
			}
			tr := obs.NewTrace()
			cfg := testConfig()
			cfg.Trace = tr
			cmp, err := RunComparison("helper", circuits, cfg)
			if c.saturated {
				cores.release()
			}
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			checkPoolIdle(t)
			sums = append(sums, codec.Sum(comparisonBytes(t, cmp, circuits)))
			if got = prefetchedSpans(t, tr); !c.helped || fmt.Sprint(got) == fmt.Sprint(want) {
				break
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: prefetched spans %v, want %v", c.name, got, want)
		}
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("comparison %d differs from the serial one", i)
		}
	}
}

// TestHelperDeltaStatsExact: delta compiles of a content-only edit
// (which inherits the baseline's combined placements) and of a
// structural one (which transfers and quenches them) return the same
// comparison and DeltaStats, and count the same placement transfers in
// the cache, whether the helper computes their DCS place phase while
// the MDR modes route (GOMAXPROCS=2) or the compile does after them
// (GOMAXPROCS=1).
func TestHelperDeltaStatsExact(t *testing.T) {
	fx := newDeltaFixture(t)
	edits := map[string][]*lutnet.Circuit{
		"content-only": {editCircuit(fx.mapped[0], 7, 2), fx.mapped[1], fx.mapped[2]},
		"structural":   {fx.mapped[0], rewireCircuit(fx.mapped[1], 3), fx.mapped[2]},
	}
	for name, modes := range edits {
		var first []byte
		var firstStats DeltaStats
		var firstTransfers uint64
		helped := false
		for run := 0; !helped && run <= helperRuns; run++ {
			procs := min(run+1, 2)
			prev := runtime.GOMAXPROCS(procs)
			tr := obs.NewTrace()
			cfg := fx.cfg
			cfg.Baseline, cfg.Trace = fx.key.Hex(), tr
			before := cfg.Cache.Stats().PlaceTransfers
			cmp, err := RunComparison(name, modes, cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: %v", name, procs, err)
			}
			checkPoolIdle(t)
			if cmp.Delta == nil || !cmp.Delta.UsedBaseline {
				t.Fatalf("%s, GOMAXPROCS=%d: delta path not taken: %+v", name, procs, cmp.Delta)
			}
			prefetched := prefetchedSpans(t, tr)["merge"]
			transfers := cfg.Cache.Stats().PlaceTransfers - before
			enc := comparisonBytes(t, cmp, modes)
			if procs == 1 {
				if prefetched > 0 {
					t.Fatalf("%s, GOMAXPROCS=1: %d prefetched merge spans", name, prefetched)
				}
				first, firstStats, firstTransfers = enc, *cmp.Delta, transfers
				continue
			}
			helped = prefetched > 0
			if *cmp.Delta != firstStats || transfers != firstTransfers {
				t.Fatalf("%s: with the helper DeltaStats %+v and %d cache transfers, without %+v and %d",
					name, *cmp.Delta, transfers, firstStats, firstTransfers)
			}
			if codec.Sum(enc) != codec.Sum(first) {
				t.Fatalf("%s: delta comparison with the helper differs from the serial one", name)
			}
		}
		if !helped {
			t.Fatalf("%s: the helper served no placement in %d runs at GOMAXPROCS=2", name, helperRuns)
		}
	}
}

// wideModes returns sixty-five one-LUT modes: each places and routes on
// its own, but no Tunable circuit holds more than mode.MaxModes modes,
// so every combined placement of them fails after its anneal.
func wideModes(t *testing.T) []*lutnet.Circuit {
	t.Helper()
	var nls []*netlist.Netlist
	for m := 0; m < 65; m++ {
		b := netlist.NewBuilder(fmt.Sprintf("m%d", m))
		in := b.InputVector("in", 2)
		if m%2 == 0 {
			b.Output("o", b.And(in[0], in[1]))
		} else {
			b.Output("o", b.Or(in[0], in[1]))
		}
		nls = append(nls, b.N)
	}
	modes, err := MapModes(nls, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return modes
}

// TestHelperPlacementErrorReadsSerial: a placement that fails reaches
// the flow through the helper as the same error the flow gets computing
// it itself — on the cold path, where a ladder attempt takes it from the
// memo, and on the delta path, where it fails the delta compile.
func TestHelperPlacementErrorReadsSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	modes := wideModes(t)
	cfg := testConfig().filled()
	region, err := SizeRegion(modes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runAttempt("wide", modes, region, cfg, region.Arch.W, newMemo[dcsKey, *dcsPlacement](0, nil))
	if want == nil || !strings.Contains(want.Error(), "exceed max") {
		t.Fatalf("serial attempt: err = %v, want the mode-count error", want)
	}
	prefetched := 0
	for run := 0; prefetched == 0 && run < helperRuns; run++ {
		places := newMemo[dcsKey, *dcsPlacement](0, nil)
		join := startHelper(cfg, prefillCold("wide", modes, places))
		tcfg := cfg
		tcfg.Trace = obs.NewTrace()
		_, got := runAttempt("wide", modes, region, tcfg, region.Arch.W, places)
		join()
		checkPoolIdle(t)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("attempt through the helper: err = %v, serial %v", got, want)
		}
		prefetched = prefetchedSpans(t, tcfg.Trace)["merge"]
	}
	if prefetched != 1 {
		t.Fatalf("%d prefetched merge spans, want 1: the attempt did not wait for the helper", prefetched)
	}

	// A baseline whose edge-match merge lost a mode fails that
	// objective's delta place phase.
	fx := newDeltaFixture(t)
	b := BuildBaseline(fx.cold, fx.mapped)
	b.Merges[merge.EdgeMatch].ModeSites = b.Merges[merge.EdgeMatch].ModeSites[:2]
	key := codec.Sum([]byte("short-merge-baseline"))
	fx.cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, b))
	dcfg := fx.cfg.filled()
	dcfg.Baseline = key.Hex()
	var errs []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		_, err := runComparisonDelta("short", fx.mapped, dcfg)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: delta compile on a short merge succeeded", procs)
		}
		errs = append(errs, err.Error())
	}
	checkPoolIdle(t)
	if errs[0] != errs[1] || !strings.Contains(errs[0], "merge has 2 modes") {
		t.Fatalf("delta place-phase error %q through the helper, %q serially", errs[1], errs[0])
	}
}

// TestHelperJoinedOnFailure: no placement helper outlives RunComparison
// — not after a sizing failure, a context cancelled before the compile
// or during its sizing, nor a delta compile that misses after the helper
// started and falls back cold. Every pool core is free and every
// goroutine gone when it returns.
func TestHelperJoinedOnFailure(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	base := runtime.NumGoroutine()

	// A LUT reading twelve inputs routes on no channel width.
	unroutable := mcncPair(t, 5, 6, 40)
	wide := editCircuit(unroutable[0], 0, 0)
	wide.Blocks[0].Inputs = nil
	for i := range 12 {
		wide.Blocks[0].Inputs = append(wide.Blocks[0].Inputs, lutnet.Source{Kind: lutnet.SrcPI, Idx: i})
	}
	wide.Blocks[0].TT = logic.NewTT(4, 1)
	unroutable[0] = wide
	if _, err := RunComparison("unroutable", unroutable, testConfig()); err == nil || !strings.Contains(err.Error(), "unroutable") {
		t.Fatalf("unroutable modes: err = %v", err)
	}
	checkPoolIdle(t)
	waitGoroutines(t, base)

	circuits := mcncPair(t, 5, 6, 80)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sizing, cancelSizing := context.WithCancel(context.Background())
	defer cancelSizing()
	for name, ctx := range map[string]context.Context{"cancelled": cancelled, "cancelled while sizing": sizing} {
		cfg := testConfig()
		cfg.Ctx = ctx
		if ctx == sizing {
			time.AfterFunc(50*time.Millisecond, cancelSizing)
		}
		if _, err := RunComparison(name, circuits, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		checkPoolIdle(t)
		waitGoroutines(t, base)
	}

	// A baseline whose third mode lost a site fails the delta MDR after
	// the first two modes routed, with the helper at work on the DCS
	// place phase.
	fx := newDeltaFixture(t)
	b := BuildBaseline(fx.cold, fx.mapped)
	b.Modes[2].Sites = b.Modes[2].Sites[1:]
	key := codec.Sum([]byte("short-mode-baseline"))
	fx.cfg.Cache.PutArtifact(key, mustEncodeBaseline(t, b))
	cfg := fx.cfg
	cfg.Baseline = key.Hex()
	cmp, err := RunComparison("short", fx.mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Delta == nil || !cmp.Delta.BaselineMiss {
		t.Fatalf("short baseline not reported as a miss: %+v", cmp.Delta)
	}
	checkPoolIdle(t)
	waitGoroutines(t, base)
}

// TestMemoPrefillClaimedOnce: a value prefill computes is claimed by the
// first caller to find it — before or after it is done — and by no
// other; prefill leaves alone a key a caller has begun to compute, and
// a value get computed is never claimed.
func TestMemoPrefillClaimedOnce(t *testing.T) {
	m := newMemo[int, int](0, nil)
	ctx := context.Background()
	release := make(chan struct{})
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		m.prefill(ctx, 1, func(staged func()) (int, error) {
			staged()
			<-release
			return 10, nil
		})
	}()
	waitFor(t, func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.entries[1] != nil
	})
	e, created, staged := m.claim(1)
	if created || staged == nil {
		t.Fatalf("first claim of a prefilled entry: created %v, staged %v", created, staged)
	}
	<-staged // the computation is past its first stage
	if _, _, again := m.claim(1); again != nil {
		t.Fatal("a prefilled entry was claimed twice")
	}
	close(release)
	if v, final, err := e.wait(ctx); v != 10 || !final || err != nil {
		t.Fatalf("wait = %d, %v, %v", v, final, err)
	}
	<-filled

	if v, computed, err := m.get(ctx, 2, func() (int, error) { return 20, nil }); v != 20 || !computed || err != nil {
		t.Fatalf("get = %d, %v, %v", v, computed, err)
	}
	m.prefill(ctx, 2, func(func()) (int, error) {
		t.Error("prefill recomputed a value a caller computed")
		return 0, nil
	})
	if _, created, staged := m.claim(2); created || staged != nil {
		t.Fatalf("claim of a computed value: created %v, staged %v", created, staged)
	}
}

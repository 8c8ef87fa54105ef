package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen/mcncgen"
	"repro/internal/lutnet"
	"repro/internal/merge"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// serialLadder is the retry loop the ladder replaces, verbatim in shape:
// try attempts in order, return the first success or the last error.
func serialLadder[T any](n int, attempt func(ctx context.Context, k int, doubt func()) (T, error)) (T, error) {
	for k := 0; ; k++ {
		v, err := attempt(context.Background(), k, func() {})
		if err == nil || k == n-1 {
			return v, err
		}
	}
}

// waitGoroutines polls until the goroutine count drops to at most n.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, started with %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor polls until cond holds, failing the test after two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// mcncPair maps two small MCNC-style circuits of different seeds — a
// pair whose tunable circuit does not route at the sized channel width.
func mcncPair(t *testing.T, seedA, seedB int64, gates int) []*lutnet.Circuit {
	t.Helper()
	var nls []*netlist.Netlist
	for _, seed := range []int64{seedA, seedB} {
		n, err := mcncgen.Generate(mcncgen.Spec{
			Name: fmt.Sprint("m", seed), PIs: 12, POs: 8, Gates: gates,
			Levels: 5, Clusters: 3, LatchFrac: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		nls = append(nls, n)
	}
	circuits, err := MapModes(nls, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return circuits
}

// attemptCount reads mm_flow_attempts_total{outcome} off the registry's
// exposition text (0 when the series is absent).
func attemptCount(t *testing.T, reg *obs.Registry, outcome string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateText(buf.Bytes()); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	prefix := `mm_flow_attempts_total{outcome="` + outcome + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

type chromeEvent struct {
	Name    string
	Tid     int
	Ts, Dur float64
	Args    map[string]string
}

// heldPool returns a pool of size cores with one held, as RunComparison
// holds one for the compile that runs the ladder.
func heldPool(size int) *corePool {
	p := &corePool{size: size}
	p.acquire()
	return p
}

// checkReleased fails unless the ladder gave back every core it took.
func checkReleased(t *testing.T, p *corePool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used != 1 {
		t.Fatalf("%d pool cores in use after the ladder returned, want the caller's 1", p.used)
	}
}

func chromeEvents(t *testing.T, tr *obs.Trace) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestLadderLowestSuccessWins runs synthetic ladders whose attempts
// succeed at a given set of indices and are in doubt from the start: at
// every pool size the result is the serial loop's, every attempt above
// the winner that was still running is cancelled and has returned by the
// time the ladder does, and no goroutine or pool core outlives the call.
func TestLadderLowestSuccessWins(t *testing.T) {
	const n = 10
	for _, succeed := range [][]int{{0}, {1}, {3, 4, 6}, {5, 6, 7, 8, 9}, {9}, {}} {
		ok := map[int]bool{}
		for _, k := range succeed {
			ok[k] = true
		}
		for _, size := range []int{1, 2, 3} {
			before := runtime.NumGoroutine()
			var started, returned atomic.Int32
			attempt := func(ctx context.Context, k int, doubt func()) (int, error) {
				started.Add(1)
				defer returned.Add(1)
				doubt()
				if ok[k] {
					return 100 + k, nil
				}
				if len(succeed) > 0 && k > succeed[0] {
					// A loser above the winner: runs until cancelled.
					<-ctx.Done()
					return 0, ctx.Err()
				}
				return 0, fmt.Errorf("attempt %d failed", k)
			}
			want, wantErr := serialLadder(n, attempt)
			started.Store(0)
			returned.Store(0)
			pool := heldPool(size)
			got, outcomes, err := ladder(context.Background(), n, pool, attempt)
			name := fmt.Sprintf("succeed=%v pool=%d", succeed, size)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: ladder = (%d, %v), serial loop = (%d, %v)", name, got, err, want, wantErr)
			}
			if s, r := started.Load(), returned.Load(); s != r || int(s) != len(outcomes) {
				t.Fatalf("%s: %d attempts started, %d returned, %d outcomes", name, s, r, len(outcomes))
			}
			if len(succeed) > 0 && len(outcomes) > succeed[0]+min(size, ladderWidth) {
				t.Fatalf("%s: started %d attempts, more than the winner plus the width", name, len(outcomes))
			}
			for k, o := range outcomes {
				wantO := outcomeFailed
				switch {
				case len(succeed) > 0 && k == succeed[0]:
					wantO = outcomeWon
				case len(succeed) > 0 && k > succeed[0]:
					wantO = outcomeCanceled
				}
				if o != wantO {
					t.Fatalf("%s: attempt %d outcome %q, want %q (%v)", name, k, o, wantO, outcomes)
				}
			}
			waitGoroutines(t, before)
			checkReleased(t, pool)
		}
	}
}

// TestLadderOutOfOrderSuccess: a higher attempt that succeeds first does
// not win while a lower one is still running — the lower success does,
// and the higher one is labelled canceled; if the lower one then fails,
// the higher one wins.
func TestLadderOutOfOrderSuccess(t *testing.T) {
	for _, lowerOK := range []bool{true, false} {
		release := make(chan struct{})
		attempt := func(ctx context.Context, k int, doubt func()) (string, error) {
			switch k {
			case 0:
				doubt()
				<-release
				if lowerOK {
					return "zero", nil
				}
				return "", errors.New("zero failed")
			case 1:
				defer close(release)
				return "one", nil
			}
			t.Errorf("attempt %d started after a success", k)
			return "", errors.New("unexpected")
		}
		got, outcomes, err := ladder(context.Background(), 10, heldPool(2), attempt)
		want, wantOut := "one", []string{outcomeFailed, outcomeWon}
		if lowerOK {
			want, wantOut = "zero", []string{outcomeWon, outcomeCanceled}
		}
		if err != nil || got != want || !reflect.DeepEqual(outcomes, wantOut) {
			t.Fatalf("lowerOK=%v: got (%q, %v, %v), want (%q, %v)", lowerOK, got, outcomes, err, want, wantOut)
		}
	}
}

// TestLadderParentCancel: cancelling the caller's context stops the
// ladder — no further attempt starts, the running ones are cancelled and
// joined, and the caller's error is returned rather than any attempt's.
func TestLadderParentCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, outcomes, err := ladder(ctx, 10, heldPool(2), func(ctx context.Context, k int, doubt func()) (int, error) {
		doubt()
		if started.Add(1) == 2 {
			cancel()
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(outcomes, []string{outcomeCanceled, outcomeCanceled}) {
		t.Fatalf("outcomes %v, want two canceled attempts", outcomes)
	}
	waitGoroutines(t, before)
}

// TestLadderSpeculatesOnlyOnDoubtAndIdleCore: while another compile
// holds the pool's spare core no second attempt starts; once it frees the
// core, an attempt in doubt gets the next attempt beside it without
// waiting for its own end, and an attempt not in doubt still runs alone.
func TestLadderSpeculatesOnlyOnDoubtAndIdleCore(t *testing.T) {
	for _, inDoubt := range []bool{false, true} {
		before := runtime.NumGoroutine()
		pool := heldPool(2)
		pool.acquire() // another compile holds the spare core
		var started atomic.Int32
		doubted, finish := make(chan struct{}), make(chan struct{})
		type result struct {
			v        int
			outcomes []string
			err      error
		}
		out := make(chan result)
		go func() {
			v, outcomes, err := ladder(context.Background(), 10, pool, func(ctx context.Context, k int, doubt func()) (int, error) {
				started.Add(1)
				if k > 0 {
					return k, nil
				}
				if inDoubt {
					doubt()
				}
				close(doubted)
				<-finish
				return 0, errors.New("zero failed")
			})
			out <- result{v, outcomes, err}
		}()
		<-doubted
		if inDoubt {
			// The ladder asked the full pool for a core and is waiting.
			waitFor(t, func() bool {
				pool.mu.Lock()
				defer pool.mu.Unlock()
				return pool.freed != nil
			})
		} else {
			time.Sleep(20 * time.Millisecond) // room for a wrong start
		}
		if n := started.Load(); n != 1 {
			t.Fatalf("inDoubt=%v: %d attempts started while no core was idle", inDoubt, n)
		}
		pool.release() // the other compile finishes
		if inDoubt {
			waitFor(t, func() bool { return started.Load() == 2 })
		} else {
			time.Sleep(20 * time.Millisecond)
			if n := started.Load(); n != 1 {
				t.Fatalf("%d attempts started while attempt 0 was not in doubt", n)
			}
		}
		close(finish)
		r := <-out
		if r.err != nil || r.v != 1 || !reflect.DeepEqual(r.outcomes, []string{outcomeFailed, outcomeWon}) {
			t.Fatalf("inDoubt=%v: got (%d, %v, %v), want attempt 1 to win after attempt 0 failed", inDoubt, r.v, r.outcomes, r.err)
		}
		checkReleased(t, pool)
		waitGoroutines(t, before)
	}
}

// TestLadderFailureKeepsTwoInFlight: a speculative attempt that fails
// while the attempt below it still runs is replaced by the next attempt
// at once, although it never called doubt.
func TestLadderFailureKeepsTwoInFlight(t *testing.T) {
	release := make(chan struct{})
	got, outcomes, err := ladder(context.Background(), 10, heldPool(2), func(ctx context.Context, k int, doubt func()) (int, error) {
		switch k {
		case 0:
			doubt()
			select {
			case <-release:
			case <-time.After(2 * time.Second):
				t.Error("attempt 2 did not start while attempt 0 ran")
			}
			return 0, errors.New("zero failed")
		case 1:
			return 0, errors.New("one failed")
		case 2:
			close(release)
			return 2, nil
		}
		return 0, errors.New("unexpected")
	})
	if err != nil || got != 2 || !reflect.DeepEqual(outcomes, []string{outcomeFailed, outcomeFailed, outcomeWon}) {
		t.Fatalf("got (%d, %v, %v), want attempt 2 to win after 0 and 1 failed", got, outcomes, err)
	}
}

// TestAttemptCfgMatchesSerialLoop: attemptCfg(k) is exactly the state
// the original serial retry loop had reached by its attempt k.
func TestAttemptCfgMatchesSerialLoop(t *testing.T) {
	base := testConfig().filled()
	const w0 = 13
	cfg, w := base, w0
	for k := 0; k < ladderAttempts; k++ {
		got, gotW := attemptCfg(base, w0, k)
		if gotW != w || !reflect.DeepEqual(got, cfg) {
			t.Fatalf("attempt %d: W %d seed %d MaxIters %d, serial loop W %d seed %d MaxIters %d",
				k, gotW, got.Seed, got.RouteOpts.MaxIters, w, cfg.Seed, cfg.RouteOpts.MaxIters)
		}
		// The serial loop's step after a failed attempt k.
		if k < 6 {
			w += 2
		} else {
			cfg.Seed += 7919
			cfg.RouteOpts.MaxIters = 2 * cfg.RouteOpts.MaxIters
		}
	}
}

// attemptsOverlap reports whether two adopted attempt threads of a
// Chrome trace were running at the same time.
func attemptsOverlap(evs []chromeEvent) bool {
	type span struct{ from, to float64 }
	threads := map[int]span{}
	for _, ev := range evs {
		if ev.Tid < 2 {
			continue
		}
		s, ok := threads[ev.Tid]
		if !ok || ev.Ts < s.from {
			s.from = ev.Ts
		}
		s.to = max(s.to, ev.Ts+ev.Dur)
		threads[ev.Tid] = s
	}
	for a, sa := range threads {
		for b, sb := range threads {
			if a != b && sa.from < sb.to && sb.from < sa.to {
				return true
			}
		}
	}
	return false
}

// TestLadderWidthByteIdentical: a comparison that needs at least one
// widening produces byte-identical encoded results whether its attempts
// run one or two at a time, the traced attempts carry their labels, and
// they overlap in time only when a second core is free.
func TestLadderWidthByteIdentical(t *testing.T) {
	circuits := mcncPair(t, 5, 6, 80)
	var encoded [][]byte
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		reg := obs.NewRegistry()
		tr := obs.NewTrace()
		cfg := testConfig()
		cfg.Obs, cfg.Trace = reg, tr
		cmp, err := RunComparison("ladder", circuits, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if w := cmp.Region.Arch.W; w <= int(float64(cmp.Region.MinW)*1.2+0.999) {
			t.Fatalf("GOMAXPROCS=%d: region W %d is the sized width; the group needs no widening", procs, w)
		}
		if won := attemptCount(t, reg, outcomeWon); won != 1 {
			t.Fatalf("GOMAXPROCS=%d: %d won attempts, want 1", procs, won)
		}
		if attemptCount(t, reg, outcomeFailed) < 1 {
			t.Fatalf("GOMAXPROCS=%d: no failed attempt recorded", procs)
		}
		if procs == 1 && attemptCount(t, reg, outcomeCanceled) != 0 {
			t.Fatal("serial ladder cancelled an attempt")
		}
		evs := chromeEvents(t, tr)
		for _, ev := range evs {
			if ev.Name == "troute" && (ev.Args["attempt"] == "" || ev.Args["outcome"] == outcomeCanceled || ev.Tid < 2) {
				t.Fatalf("GOMAXPROCS=%d: troute span %+v not on a labelled attempt thread", procs, ev)
			}
		}
		if overlap := attemptsOverlap(evs); overlap != (procs > 1) {
			t.Fatalf("GOMAXPROCS=%d: attempts overlapping in time = %v", procs, overlap)
		}
		encoded = append(encoded, comparisonBytes(t, cmp, circuits))
	}
	if codec.Sum(encoded[0]) != codec.Sum(encoded[1]) {
		t.Fatal("comparison at 2 attempts in flight differs from the serial ladder")
	}
}

// TestLadderIdentityLowestRung: the identity merge runs on the cold
// retry ladder from the region it is given. On the sized region of a
// pair whose identity merge does not route there, it returns the region
// of the lowest attempt that routed, every attempt below it having
// failed, and the same result whether its attempts run one or two at a
// time.
func TestLadderIdentityLowestRung(t *testing.T) {
	circuits := mcncPair(t, 5, 6, 80)
	cfg := testConfig()
	sized, err := SizeRegion(circuits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []*DCSResult
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		tr := obs.NewTrace()
		tcfg := cfg
		tcfg.Trace = tr
		id, region, err := RunDCSIdentity("identity", circuits, sized, tcfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		won, failed := -1, map[int]bool{}
		for _, ev := range chromeEvents(t, tr) {
			k, err := strconv.Atoi(ev.Args["attempt"])
			if err != nil {
				continue // not inside an attempt
			}
			switch ev.Args["outcome"] {
			case outcomeWon:
				won = k
			case outcomeFailed:
				failed[k] = true
			}
		}
		if won < 1 {
			t.Fatalf("GOMAXPROCS=%d: attempt %d won; the identity merge should fail on the sized region", procs, won)
		}
		for k := 0; k < won; k++ {
			if !failed[k] {
				t.Fatalf("GOMAXPROCS=%d: attempt %d won, but attempt %d did not fail", procs, won, k)
			}
		}
		if _, w := attemptCfg(cfg.filled(), sized.Arch.W, won); region.Arch.W != w || region.Arch.Width != sized.Arch.Width {
			t.Fatalf("GOMAXPROCS=%d: routed on side %d W %d, attempt %d's region is side %d W %d",
				procs, region.Arch.Width, region.Arch.W, won, sized.Arch.Width, w)
		}
		results = append(results, id)
	}
	a, b := results[0], results[1]
	if a.ReconfigBits != b.ReconfigBits || a.AvgWire != b.AvgWire || a.TPlaceCost != b.TPlaceCost ||
		!reflect.DeepEqual(a.TRoute.Route.Trees, b.TRoute.Route.Trees) {
		t.Fatal("identity ladder at 2 attempts in flight differs from the serial ladder")
	}
}

// TestIdentityPadsDoNotFit: an identity merge with more pad groups than
// the region has pad sites — a 40-input AND next to a 2-input XOR
// driving 40 outputs, whose inputs and outputs the identity merge keeps
// on separate pads — fails at once with both counts, on no ladder rung.
func TestIdentityPadsDoNotFit(t *testing.T) {
	wide := netlist.NewBuilder("wide-in")
	wide.Output("o", wide.And(wide.InputVector("in", 40)...))
	fan := netlist.NewBuilder("wide-out")
	in := fan.InputVector("in", 2)
	x := fan.Xor(in[0], in[1])
	for o := 0; o < 40; o++ {
		fan.Output(fmt.Sprintf("o[%d]", o), x)
	}
	cfg := testConfig()
	circuits, err := MapModes([]*netlist.Netlist{wide.N, fan.N}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region, err := SizeRegion(circuits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	cfg.Trace = tr
	_, _, err = RunDCSIdentity("pads", circuits, region, cfg)
	want := fmt.Sprintf("identity merge does not fit the region: 80 pad groups for %d pad sites", region.Arch.NumIOSites())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
	if spans := tr.SpanNames(); len(spans) != 0 {
		t.Fatalf("a merge that cannot fit ran stages %v", spans)
	}
}

// TestRunComparisonCancelled: a compile whose context is already
// cancelled returns the context's error — not an unroutable region from
// probes that stopped early — and a cancelled delta compile is not
// counted as a baseline miss. A ladder attempt cancelled during its
// TRoute stops at the router's next iteration instead of negotiating to
// the end of its budget.
func TestRunComparisonCancelled(t *testing.T) {
	circuits := mcncPair(t, 5, 6, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, baseline := range []string{"", strings.Repeat("0", 64)} {
		cfg := testConfig()
		cfg.Ctx, cfg.Baseline, cfg.Cache = ctx, baseline, NewCache()
		if _, err := RunComparison("cancelled", circuits, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("baseline %q: err = %v, want context.Canceled", baseline, err)
		}
		if misses := cfg.Cache.Stats().BaselineMisses; misses != 0 {
			t.Fatalf("baseline %q: cancelled compile counted %d baseline misses", baseline, misses)
		}
	}

	// Attempt 0 of this group fails in TRoute, and its doubt hook fires
	// from the stalled route's iterations: cancel the attempt there.
	cfg := testConfig().filled()
	cfg.Trace = obs.NewTrace()
	region, err := SizeRegion(circuits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*obs.Trace, ladderAttempts)
	places := newMemo[dcsKey, *dcsPlacement](0, nil)
	attempt := rung(cfg, region.Arch.W, traces, func(acfg Config, w int) (*Comparison, error) {
		return runAttempt("cancelled", circuits, region, acfg, w, places)
	})
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	doubts := 0
	_, err = attempt(actx, 0, func() {
		doubts++
		acancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("attempt cancelled in TRoute: err = %v, want context.Canceled", err)
	}
	evs := chromeEvents(t, traces[0])
	if last := evs[len(evs)-1]; last.Name != "troute" {
		t.Fatalf("attempt was cancelled in %q, want troute", last.Name)
	}
	if doubts != 1 {
		t.Fatalf("cancelled TRoute ran %d more stalled iterations", doubts-1)
	}
}

// TestLadderPlacesOncePerSeed: the ladder's attempts share their DCS
// placements, so however many attempts route, each seed used is merged
// and refined by TPlace exactly once per objective — whether the
// attempts run one or two at a time.
func TestLadderPlacesOncePerSeed(t *testing.T) {
	circuits := mcncPair(t, 5, 6, 80)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		tr := obs.NewTrace()
		cfg := testConfig()
		cfg.Trace = tr
		_, err := RunComparison("ladder", circuits, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		seeds := map[int64]bool{}
		spans := map[string]map[int64]int{}
		for _, ev := range chromeEvents(t, tr) {
			k, err := strconv.Atoi(ev.Args["attempt"])
			if err != nil {
				continue // not inside an attempt
			}
			acfg, _ := attemptCfg(cfg.filled(), 0, k)
			seeds[acfg.Seed] = true
			if spans[ev.Name] == nil {
				spans[ev.Name] = map[int64]int{}
			}
			spans[ev.Name][acfg.Seed]++
		}
		if routes, places := sumCounts(spans["troute"]), sumCounts(spans["merge"]); routes <= places {
			t.Fatalf("GOMAXPROCS=%d: %d TRoutes on %d placements, want a placement routed twice", procs, routes, places)
		}
		for seed := range seeds {
			for _, stage := range []string{"merge", "tplace"} {
				if n := spans[stage][seed]; n != 2 {
					t.Errorf("GOMAXPROCS=%d: seed %d: %d %s spans, want 2", procs, seed, n, stage)
				}
			}
		}
	}
}

func sumCounts(m map[int64]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// TestLadderPlaceMemoCancelledComputer: an attempt cancelled while it
// computes a DCS placement leaves nothing behind for the attempts waiting
// on it. A waiter whose context is live computes the placement afresh and
// keeps it for later attempts; a waiter whose own context is cancelled
// returns that context's error. A placement — or an error — computed in
// full is shared.
func TestLadderPlaceMemoCancelledComputer(t *testing.T) {
	memo := newMemo[dcsKey, *dcsPlacement](0, nil)
	type result struct {
		p   *dcsPlacement
		err error
	}
	get := func(ctx context.Context, key dcsKey, compute func() (*dcsPlacement, error)) <-chan result {
		out := make(chan result, 1)
		go func() {
			p, _, err := memo.get(ctx, key, compute)
			out <- result{p, err}
		}()
		return out
	}
	unused := func() (*dcsPlacement, error) {
		t.Error("a waiter recomputed a placement it should not have")
		return nil, errors.New("unused")
	}

	lowCtx, cancelLow := context.WithCancel(context.Background())
	computing := make(chan struct{})
	key := dcsKey{seed: 1, obj: merge.WireLength}
	low := get(lowCtx, key, func() (*dcsPlacement, error) {
		close(computing)
		<-lowCtx.Done()
		return nil, lowCtx.Err()
	})
	<-computing
	want := &dcsPlacement{cost: 42}
	var computes atomic.Int32
	high := get(context.Background(), key, func() (*dcsPlacement, error) {
		computes.Add(1)
		return want, nil
	})
	deadCtx, cancelDead := context.WithCancel(context.Background())
	dead := get(deadCtx, key, unused)
	// Room for both waiters to block on the entry. A waiter arriving
	// later gets the same outcome; the pause makes the waiting path the
	// one exercised.
	time.Sleep(20 * time.Millisecond)
	cancelDead()
	if r := <-dead; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", r.err)
	}
	cancelLow()
	if r := <-low; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled computer: err = %v, want context.Canceled", r.err)
	}
	if r := <-high; r.err != nil || r.p != want || computes.Load() != 1 {
		t.Fatalf("waiter after a cancelled computer: got (%v, %v) after %d computes, want its own placement", r.p, r.err, computes.Load())
	}
	if r := <-get(context.Background(), key, unused); r.err != nil || r.p != want {
		t.Fatalf("later attempt: got (%v, %v), want the kept placement", r.p, r.err)
	}

	key = dcsKey{seed: 2, obj: merge.EdgeMatch}
	failed := errors.New("capacity")
	if r := <-get(context.Background(), key, func() (*dcsPlacement, error) { return nil, failed }); !errors.Is(r.err, failed) {
		t.Fatalf("failing computer: err = %v", r.err)
	}
	if r := <-get(context.Background(), key, unused); !errors.Is(r.err, failed) {
		t.Fatalf("later attempt: err = %v, want the shared failure", r.err)
	}
}

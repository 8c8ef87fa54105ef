package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/store"
)

// warmSuites builds a small one-suite workload: three tiny generated
// sequential modes (kept far below benchmark size so the cold pass stays
// fast under -race), all 2-mode groups plus the 3-mode group.
func warmSuites(t *testing.T) []*Suite {
	t.Helper()
	var nls []*netlist.Netlist
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		b := netlist.NewBuilder(fmt.Sprintf("m%d", i))
		sigs := b.InputVector("in", 4)
		for g := 0; g < 30; g++ {
			x := sigs[rng.Intn(len(sigs))]
			y := sigs[rng.Intn(len(sigs))]
			switch rng.Intn(4) {
			case 0:
				sigs = append(sigs, b.And(x, y))
			case 1:
				sigs = append(sigs, b.Or(x, y))
			case 2:
				sigs = append(sigs, b.Xor(x, y))
			default:
				sigs = append(sigs, b.Latch(x, false))
			}
		}
		for o := 0; o < 3; o++ {
			b.Output(fmt.Sprintf("o[%d]", o), sigs[len(sigs)-1-o])
		}
		nls = append(nls, b.N)
	}
	mapped, err := flow.MapModes(nls, flow.Config{PlaceEffort: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []*Suite{{
		Name:     "Mini",
		Circuits: mapped,
		Groups:   [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}},
	}}
}

// TestSweepColdWarmIdentical is the acceptance test of the persistence
// subsystem: an mmbench-style sweep run twice against one artifact-store
// directory renders byte-identical reports, and the warm run performs no
// placement annealing at all — every group comes back as one store read.
func TestSweepColdWarmIdentical(t *testing.T) {
	suites := warmSuites(t)
	dir := t.TempDir()
	njobs := len(suites[0].Groups)

	run := func() ([]byte, []*GroupResult, flow.Stats) {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := Scale{Effort: 0.15, Seed: 1, Cache: flow.NewCacheWithStore(st)}
		results, err := RunAll(suites, sc, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteFigures(&buf, results)
		WriteGroupReport(&buf, results)
		return buf.Bytes(), results, sc.Cache.Stats()
	}

	coldReport, coldResults, coldStats := run()
	if coldStats.PlaceAnneals == 0 || coldStats.ArtifactHits != 0 {
		t.Fatalf("cold stats %+v: expected annealing work and no group hits", coldStats)
	}
	// Each RunGroup stores exactly one entry, its whole result.
	if coldStats.Store.Puts != uint64(njobs) {
		t.Fatalf("cold run put %d store entries for %d groups, want one each", coldStats.Store.Puts, njobs)
	}

	warmReport, warmResults, warmStats := run()
	if !bytes.Equal(warmReport, coldReport) {
		t.Fatal("warm-store report is not byte-identical to the cold one")
	}
	if warmStats.PlaceAnneals != 0 {
		t.Fatalf("warm run annealed %d placements, want 0", warmStats.PlaceAnneals)
	}
	if warmStats.GraphBuilds != 0 {
		t.Fatalf("warm run built %d routing graphs, want 0", warmStats.GraphBuilds)
	}
	if warmStats.ArtifactHits != uint64(njobs) {
		t.Fatalf("warm run hit %d group artifacts, want %d", warmStats.ArtifactHits, njobs)
	}
	for i := range coldResults {
		if !reflect.DeepEqual(coldResults[i], warmResults[i]) {
			t.Fatalf("group %d: decoded result differs from computed one", i)
		}
	}
}

// TestGroupResultRoundTrip pins the stored form of a group result,
// including a nil Diff matrix (the report renders it as "unavailable"
// and the artifact must preserve the gap rather than materialise a zero
// matrix).
func TestGroupResultRoundTrip(t *testing.T) {
	res := &GroupResult{
		Suite: "S", Name: "S-0-1", ModeLUTs: []int{12, 15},
		Side: 6, MinW: 4, ChannelW: 5,
		MDRBits: 1000, DiffBits: 600, EMBits: 300, WLBits: 280,
		LUTBitsTotal: 612, MDRRoutingBits: 400, DiffRoutingBits: 88,
		EMRoutingBits: 40, WLRoutingBits: 36,
		SpeedupEM: 3.3, SpeedupWL: 3.57, WireMDR: 120.5, WireEM: 1.1, WireWL: 1.05,
		MDRSwitch:  flow.SwitchMatrix{{0, 1000}, {1000, 0}},
		DCSSwitch:  flow.SwitchMatrix{{0, 280}, {280, 0}},
		RouteIters: 31, RerouteConns: 402, PeakOveruse: 3,
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGroupResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
	if got.DiffSwitch != nil {
		t.Fatal("nil Diff matrix did not survive the round trip")
	}
	// Corrupt payloads must decode to an error, not a bogus result.
	if _, err := decodeGroupResult(data[:len(data)-3]); err == nil {
		t.Fatal("truncated group result decoded without error")
	}
	if _, err := decodeGroupResult([]byte("{}")); err == nil {
		t.Fatal("group result without modes decoded without error")
	}
}

// FuzzDecodeGroupResult hardens the group-result decoder, which reads
// bytes from the artifact store and the remote tier: it must never
// panic, and every result it accepts must marshal to bytes that decode
// and marshal again to the same bytes. Its seeds, under
// testdata/fuzz/FuzzDecodeGroupResult, are a payload stored by a real
// RunGroup of warmSuites' first group, "{}" and that payload truncated;
// plain go test replays them. Explore further with
// go test -run '^$' -fuzz FuzzDecodeGroupResult ./internal/experiments.
func FuzzDecodeGroupResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeGroupResult(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("accepted group result does not marshal: %v", err)
		}
		got, err := decodeGroupResult(enc)
		if err != nil {
			t.Fatalf("re-marshalled group result does not decode: %v", err)
		}
		if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("group result did not round-trip: %s, then %s (%v)", enc, again, err)
		}
	})
}

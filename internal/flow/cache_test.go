package flow

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/store"
)

// TestGraphCacheSingleInstance checks that concurrent requests for the
// same region geometry all receive one graph instance, built once, and
// that the shared instance matches an independently built graph.
func TestGraphCacheSingleInstance(t *testing.T) {
	c := NewCache()
	const workers = 8
	got := make([]*arch.Graph, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.graph(5, 6)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatalf("worker %d received a different graph instance", i)
		}
	}
	fresh := arch.BuildGraph(arch.New(5, 5, 6))
	if got[0].Checksum() != fresh.Checksum() {
		t.Fatalf("cached graph differs from a freshly built one")
	}
	if gs := c.Graphs(); len(gs) != 1 {
		t.Fatalf("cache holds %d graphs, want 1", len(gs))
	}
}

// TestPlacementMemoMatchesUncached checks that the memoized placement path
// returns exactly what the direct path computes: the memo must change how
// often work is done, never its outcome.
func TestPlacementMemoMatchesUncached(t *testing.T) {
	cfg := testConfig().filled()
	mapped, err := MapModes(buildPair(t, 3, 4, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := mapped[0]
	a := arch.New(6, 6, 8)

	plain, ccPlain, err := placeCircuit(c, a, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cached := cfg
	cached.Cache = NewCache()
	memo1, ccMemo, err := placeCircuit(c, a, cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, memo1) {
		t.Fatalf("memoized placement differs from direct placement")
	}
	if !reflect.DeepEqual(ccPlain, ccMemo) {
		t.Fatalf("memoized circuit cells differ from direct ones")
	}
	// Second request must hit the memo: same instance back.
	memo2, _, err := placeCircuit(c, a, cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if memo1 != memo2 {
		t.Fatalf("second request rebuilt the placement instead of reusing it")
	}
	// Placement is independent of channel width: a different W, same side,
	// must reuse the same entry.
	wide := arch.New(6, 6, 16)
	memo3, _, err := placeCircuit(c, wide, cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if memo1 != memo3 {
		t.Fatalf("channel width leaked into the placement key")
	}
	// A different seed must not.
	other, _, err := placeCircuit(c, a, cached, 1)
	if err != nil {
		t.Fatal(err)
	}
	if memo1 == other {
		t.Fatalf("different seeds shared one placement entry")
	}
}

// TestPlacementIgnoresChannelWidth asserts the invariant behind
// placementChannelWidth and behind the cache's channel-width-free key:
// place.Place is a pure function of the logic array's dimensions — the
// routing channel width of the architecture it is handed never influences
// the result.
func TestPlacementIgnoresChannelWidth(t *testing.T) {
	cfg := testConfig().filled()
	mapped, err := MapModes(buildPair(t, 5, 6, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prob, _ := place.FromCircuit(mapped[0])
	var baseline *place.Placement
	for _, w := range []int{2, placementChannelWidth, 64} {
		pl, err := place.Place(prob, arch.New(6, 6, w), place.Options{Seed: 3, Effort: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = pl
		} else if !reflect.DeepEqual(pl, baseline) {
			t.Fatalf("placement at channel width %d differs from the baseline", w)
		}
	}
}

// TestPlacementContentAddressed checks that the cache keys placements by
// circuit content, not pointer identity: two structurally equal circuits
// behind distinct pointers share one entry.
func TestPlacementContentAddressed(t *testing.T) {
	cfg := testConfig().filled()
	mappedA, err := MapModes(buildPair(t, 3, 4, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mappedB, err := MapModes(buildPair(t, 3, 4, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mappedA[0] == mappedB[0] {
		t.Fatal("test wants distinct circuit pointers")
	}
	c := NewCache()
	a := arch.New(6, 6, 8)
	pl1, _, err := c.placement(mappedA[0], a.Width, a.Height, 1, cfg.PlaceEffort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl2, _, err := c.placement(mappedB[0], a.Width, a.Height, 1, cfg.PlaceEffort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl1 != pl2 {
		t.Fatal("structurally equal circuits did not share one placement entry")
	}
	if st := c.Stats(); st.PlaceAnneals != 1 || st.PlaceHits != 1 {
		t.Fatalf("stats %+v, want 1 anneal and 1 hit", st)
	}
}

// TestMemoryTierFlush checks the memo bound: inserting into a full memo
// flushes it wholesale (keeping a long-running server's footprint
// finite), the flush counts in Stats.MemFlushes, and the memo keeps
// answering correctly afterwards. The cache's own memos hold
// memoryCapEntries entries; a small bound stands in for it here.
func TestMemoryTierFlush(t *testing.T) {
	c := NewCache()
	if c.graphs.limit != memoryCapEntries || c.places.limit != memoryCapEntries {
		t.Fatalf("cache memo limits %d/%d, want %d", c.graphs.limit, c.places.limit, memoryCapEntries)
	}
	const limit = 4
	m := newMemo[int, int](limit, &c.memFlushes)
	square := func(i int) func() (int, error) {
		return func() (int, error) { return i * i, nil }
	}
	ctx := context.Background()
	for i := 0; i <= limit; i++ {
		if v, _, err := m.get(ctx, i, square(i)); err != nil || v != i*i {
			t.Fatalf("get(%d) = %d, %v", i, v, err)
		}
		if n := len(m.entries); n > limit {
			t.Fatalf("memo holds %d entries, limit %d", n, limit)
		}
	}
	if n := c.Stats().MemFlushes; n != 1 {
		t.Fatalf("%d flushes after %d entries, want 1", n, limit+1)
	}
	if v, computed, err := m.get(ctx, limit, square(limit)); err != nil || computed || v != limit*limit {
		t.Fatalf("entry inserted after the flush: got (%d, computed %v, %v)", v, computed, err)
	}
	if v, computed, err := m.get(ctx, 0, square(0)); err != nil || !computed || v != 0 {
		t.Fatalf("flushed entry: got (%d, computed %v, %v), want it recomputed", v, computed, err)
	}
}

// TestComparisonIdenticalWithCache runs the full three-way comparison with
// and without a cache and demands identical metrics — the guarantee the
// concurrent sweep's byte-identical reports rest on.
func TestComparisonIdenticalWithCache(t *testing.T) {
	cfg := testConfig()
	mapped, err := MapModes(buildPair(t, 1, 2, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunComparison("plain", mapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedCfg := cfg
	cachedCfg.Cache = NewCache()
	cached, err := RunComparison("cached", mapped, cachedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MDR.ReconfigBits != cached.MDR.ReconfigBits ||
		plain.MDR.DiffRoutingBits != cached.MDR.DiffRoutingBits ||
		plain.MDR.AvgWire != cached.MDR.AvgWire {
		t.Fatalf("MDR metrics differ with cache: %+v vs %+v", plain.MDR, cached.MDR)
	}
	if plain.EdgeMatch.ReconfigBits != cached.EdgeMatch.ReconfigBits ||
		plain.WireLen.ReconfigBits != cached.WireLen.ReconfigBits ||
		plain.EdgeMatch.AvgWire != cached.EdgeMatch.AvgWire ||
		plain.WireLen.AvgWire != cached.WireLen.AvgWire {
		t.Fatalf("DCS metrics differ with cache")
	}
	if plain.Region.Arch != cached.Region.Arch || plain.Region.MinW != cached.Region.MinW {
		t.Fatalf("region sizing differs with cache: %+v vs %+v", plain.Region.Arch, cached.Region.Arch)
	}
}

// TestGraphsNeverReachStore checks that the store-backed cache keeps
// every intermediate product in memory: a repeat graph request is a memo
// hit with no store traffic, a second cache over the same directory
// builds the graph again, and neither a whole SizeRegion run nor a whole
// RunComparison writes anything to the store — what is stored is whole
// results only, put there by the callers one layer up.
func TestGraphsNeverReachStore(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cache {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewCacheWithStore(st)
	}

	first := open()
	if first.graph(5, 6) != first.graph(5, 6) {
		t.Fatal("second in-process request returned a different instance")
	}
	s := first.Stats()
	if s.GraphBuilds != 1 || s.GraphHits != 1 {
		t.Fatalf("stats %+v, want 1 build / 1 hit", s)
	}
	if gets := s.Store.Hits + s.Store.Misses + s.Store.Corrupt; gets != 0 || s.Store.Puts != 0 {
		t.Fatalf("store stats %+v, want no gets or puts for graphs", s.Store)
	}
	second := open()
	second.graph(5, 6)
	if s := second.Stats(); s.GraphBuilds != 1 {
		t.Fatalf("second cache stats %+v, want the graph built again", s)
	}

	cfg := testConfig()
	cfg.Cache = open()
	mapped, err := MapModes(buildPair(t, 3, 4, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SizeRegion(mapped, cfg); err != nil {
		t.Fatal(err)
	}
	s = cfg.Cache.Stats()
	if s.PlaceAnneals == 0 || s.GraphBuilds == 0 {
		t.Fatalf("stats %+v: SizeRegion did no work, test is vacuous", s)
	}
	if gets := s.Store.Hits + s.Store.Misses + s.Store.Corrupt; gets != 0 || s.Store.Puts != 0 {
		t.Fatalf("SizeRegion store stats %+v, want no gets or puts", s.Store)
	}

	cfg.Cache = open()
	if _, err := RunComparison("nostore", mapped, cfg); err != nil {
		t.Fatal(err)
	}
	s = cfg.Cache.Stats()
	if s.PlaceAnneals == 0 {
		t.Fatalf("stats %+v: RunComparison annealed nothing, test is vacuous", s)
	}
	if gets := s.Store.Hits + s.Store.Misses + s.Store.Corrupt; gets != 0 || s.Store.Puts != 0 {
		t.Fatalf("RunComparison store stats %+v, want no gets or puts", s.Store)
	}
}

// TestStatsFieldsAllTagged: every integer field of Stats, the nested
// store.Stats included, carries a metric tag with a help text, under a
// unique name — so a new counter cannot skip /metrics or the log line.
func TestStatsFieldsAllTagged(t *testing.T) {
	seen := map[string]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, path+f.Name+".")
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				name := f.Tag.Get("metric")
				if name == "" || f.Tag.Get("help") == "" {
					t.Errorf("Stats.%s%s lacks a metric or help tag", path, f.Name)
				}
				if seen[name] {
					t.Errorf("Stats.%s%s reuses metric name %q", path, f.Name, name)
				}
				seen[name] = true
			}
		}
	}
	walk(reflect.TypeOf(Stats{}), "")
	if n := len(obs.Fields(Stats{})); n != len(seen) {
		t.Fatalf("obs.Fields found %d fields, the walk %d", n, len(seen))
	}
}

// TestStatsString: the log line names every non-zero field by its metric
// family, in declaration order, and skips the zero ones.
func TestStatsString(t *testing.T) {
	s := Stats{PlaceAnneals: 2, MemFlushes: 1, Store: store.Stats{Puts: 7, BytesWritten: 52946}}
	want := "mm_cache_place_anneals_total=2 mm_cache_mem_flushes_total=1 mm_store_puts_total=7 mm_store_bytes_written_total=52946"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (Stats{}).String(); got != "" {
		t.Fatalf("zero Stats renders %q, want empty", got)
	}
}

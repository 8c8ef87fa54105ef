package flow

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/codec"
	"repro/internal/lutnet"
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

// TestPlacementStoreTier checks the persistent tier end to end: a second
// cache (a second process, in effect) sharing the same store directory
// must reload the identical placement without annealing, and a corrupted
// artifact must degrade to a recompute with the same result.
func TestPlacementStoreTier(t *testing.T) {
	cfg := testConfig().filled()
	mapped, err := MapModes(buildPair(t, 3, 4, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := mapped[0]
	dir := t.TempDir()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCacheWithStore(st1)
	plCold, ccCold, err := cold.placement(ct, 6, 6, 1, cfg.PlaceEffort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.PlaceAnneals != 1 || s.PlaceStoreHits != 0 {
		t.Fatalf("cold stats %+v, want 1 anneal / 0 store hits", s)
	}

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCacheWithStore(st2)
	plWarm, ccWarm, err := warm.placement(ct, 6, 6, 1, cfg.PlaceEffort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plWarm, plCold) || !reflect.DeepEqual(ccWarm, ccCold) {
		t.Fatal("store-tier placement differs from the annealed one")
	}
	if s := warm.Stats(); s.PlaceAnneals != 0 || s.PlaceStoreHits != 1 {
		t.Fatalf("warm stats %+v, want 0 anneals / 1 store hit", s)
	}

	// Corrupt the artifact: the next process must fall back to annealing
	// and reproduce the identical placement (determinism), not error out.
	key := placeKey{circuit: warm.CircuitHash(ct), width: 6, height: 6, seed: 1, effort: cfg.PlaceEffort, starts: 1}.storeKey()
	raw, err := os.ReadFile(st2.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(st2.Path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	healed := NewCacheWithStore(st3)
	plHealed, _, err := healed.placement(ct, 6, 6, 1, cfg.PlaceEffort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plHealed, plCold) {
		t.Fatal("recompute after corruption produced a different placement")
	}
	if s := healed.Stats(); s.PlaceAnneals != 1 || s.Store.Corrupt != 1 {
		t.Fatalf("healed stats %+v, want 1 anneal / 1 corrupt", s)
	}
	// The recompute healed the entry on disk.
	st4, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	final := NewCacheWithStore(st4)
	if _, _, err := final.placement(ct, 6, 6, 1, cfg.PlaceEffort, 1, nil); err != nil {
		t.Fatal(err)
	}
	if s := final.Stats(); s.PlaceStoreHits != 1 {
		t.Fatalf("final stats %+v, want a store hit after healing", s)
	}
}

// TestMemoryTierFlush checks the memo-tier bound: exceeding
// memoryCapEntries flushes the maps (keeping a long-running server's
// footprint finite) and the cache keeps answering correctly afterwards.
func TestMemoryTierFlush(t *testing.T) {
	c := NewCache()
	first := &lutnet.Circuit{Name: "c0", K: 4}
	want := c.CircuitHash(first)
	for i := 1; i <= memoryCapEntries+1; i++ {
		c.CircuitHash(&lutnet.Circuit{Name: fmt.Sprintf("c%d", i), K: 4})
	}
	if c.Stats().MemFlushes == 0 {
		t.Fatalf("no flush after %d entries", memoryCapEntries+2)
	}
	if c.CircuitHash(first) != want {
		t.Fatal("hash changed across a flush")
	}
}

// TestComparisonWarmStore runs the full comparison twice against one store
// directory with fresh in-memory caches and demands identical metrics with
// zero placement annealing on the warm pass.
func TestComparisonWarmStore(t *testing.T) {
	cfg := testConfig()
	mapped, err := MapModes(buildPair(t, 1, 2, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() (*Comparison, Stats) {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Cache = NewCacheWithStore(st)
		cmp, err := RunComparison("warmstore", mapped, c)
		if err != nil {
			t.Fatal(err)
		}
		return cmp, c.Cache.Stats()
	}
	cold, coldStats := run()
	warm, warmStats := run()
	if coldStats.PlaceAnneals == 0 {
		t.Fatal("cold run annealed nothing — test is vacuous")
	}
	if warmStats.PlaceAnneals != 0 {
		t.Fatalf("warm run annealed %d placements, want 0", warmStats.PlaceAnneals)
	}
	if cold.MDR.ReconfigBits != warm.MDR.ReconfigBits ||
		cold.WireLen.ReconfigBits != warm.WireLen.ReconfigBits ||
		cold.EdgeMatch.ReconfigBits != warm.EdgeMatch.ReconfigBits ||
		cold.MDR.AvgWire != warm.MDR.AvgWire ||
		cold.Region.Arch != warm.Region.Arch {
		t.Fatal("warm-store comparison differs from the cold one")
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

// TestGraphStoreTier checks the graph artifact tier end to end: a cold
// process builds and persists the graph; a warm process (fresh cache, same
// store directory) serves it from the store with zero builds; a corrupt
// entry — at the store's checksum level or at the codec's decode level —
// degrades to a rebuild that heals the entry.
func TestGraphStoreTier(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cache {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewCacheWithStore(st)
	}

	cold := open()
	g1 := cold.graph(5, 6)
	if s := cold.Stats(); s.GraphBuilds != 1 || s.GraphLoads != 0 {
		t.Fatalf("cold stats %+v, want 1 build / 0 loads", s)
	}

	warm := open()
	g2 := warm.graph(5, 6)
	if g2.Checksum() != g1.Checksum() {
		t.Fatal("store-served graph differs from the built one")
	}
	if g2.NumRoutingBits != g1.NumRoutingBits {
		t.Fatal("store-served graph has different routing-bit count")
	}
	if s := warm.Stats(); s.GraphBuilds != 0 || s.GraphStoreHits != 1 || s.GraphLoads != 1 {
		t.Fatalf("warm stats %+v, want 0 builds / 1 store hit / 1 load", s)
	}
	// In-process re-request is a memory hit, not another store read.
	if g3 := warm.graph(5, 6); g3 != g2 {
		t.Fatal("second in-process request returned a different instance")
	}
	if s := warm.Stats(); s.GraphHits != 1 || s.GraphStoreHits != 1 {
		t.Fatalf("stats %+v, want 1 mem hit and still 1 store hit", s)
	}

	// Store-level corruption: the entry's content no longer matches its
	// key, so store.Get reports it corrupt and the cache rebuilds.
	key := codec.GraphKey(5, 6)
	raw, err := os.ReadFile(warm.Store().Path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(warm.Store().Path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	healed := open()
	if g := healed.graph(5, 6); g.Checksum() != g1.Checksum() {
		t.Fatal("rebuild after store corruption produced a different graph")
	}
	if s := healed.Stats(); s.GraphBuilds != 1 || s.GraphLoads != 0 || s.Store.Corrupt != 1 {
		t.Fatalf("healed stats %+v, want 1 build / 0 loads / 1 corrupt", s)
	}
	// The rebuild healed the entry on disk.
	final := open()
	final.graph(5, 6)
	if s := final.Stats(); s.GraphBuilds != 0 || s.GraphLoads != 1 {
		t.Fatalf("final stats %+v, want the healed entry served as a load", s)
	}

	// Decode-level corruption: a store entry that passes the store's own
	// checksum (Put recomputes it) but is not a valid graph encoding must
	// count as a store hit that fails to load, then rebuild.
	bogusDir := t.TempDir()
	stBogus, err := store.Open(bogusDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stBogus.Put(key, []byte("not a graph artifact")); err != nil {
		t.Fatal(err)
	}
	bogus := NewCacheWithStore(stBogus)
	if g := bogus.graph(5, 6); g.Checksum() != g1.Checksum() {
		t.Fatal("rebuild after decode failure produced a different graph")
	}
	if s := bogus.Stats(); s.GraphBuilds != 1 || s.GraphStoreHits != 1 || s.GraphLoads != 0 {
		t.Fatalf("bogus stats %+v, want 1 build / 1 store hit / 0 loads", s)
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

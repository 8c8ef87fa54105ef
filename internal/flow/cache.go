package flow

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/codec"
	"repro/internal/lutnet"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/store"
)

// placementChannelWidth is the channel width of the throwaway architecture
// handed to place.Place by the cache. Placement is wirelength-driven over
// logic and pad *sites* only — it never reads the channel width, which is
// why one cached placement serves every channel-width probe of SizeRegion
// and why this value is arbitrary. The invariant is asserted by
// TestPlacementIgnoresChannelWidth; anything routing-related must not be
// built from this architecture.
const placementChannelWidth = 4

// memoryCapEntries bounds the in-process memo tier. A sweep or a CLI run
// never approaches it, but a long-running mmserved accumulates entries
// (and the hashes map pins every requested circuit) for the process
// lifetime; past the cap the maps are flushed wholesale. Flushing is
// always sound — at worst the next request recomputes — so the coarse
// policy buys a bounded footprint without per-entry LRU bookkeeping.
// In-flight computations are unaffected: waiters hold their entry
// pointer, and a re-request simply creates a fresh entry.
const memoryCapEntries = 4096

// Cache memoizes the expensive, deterministic intermediate products of the
// flows so repeated jobs share work instead of redoing it:
//
//   - Routing-resource graphs, keyed by region geometry. A graph is built
//     once and then shared read-only — the channel-width bisection of
//     SizeRegion, the widening retries of RunComparison, and every worker
//     of a concurrent sweep all route over the same immutable structure.
//   - Placements, keyed by (circuit content hash, logic-array side, seed,
//     effort). Placement is independent of channel width, so the placement
//     computed for the first bisection probe is reused by every later
//     probe and by the final MDR implementation on the sized region. The
//     key is the circuit's *content* — structurally equal circuits hit the
//     same entry regardless of pointer identity.
//
// Both memos live in memory only. A cache optionally carries a persistent
// artifact store (see NewCacheWithStore), but the store holds whole
// results only — group results, compile results and ECO baselines, read
// and written one layer up through GetArtifact and PutArtifact — so what
// survives the process is exactly what a caller asks for. Everything
// cached is a pure function of its key, so cached and uncached runs
// produce identical results; a Cache only changes how often the work is
// done. All methods are safe for concurrent use, and concurrent requests
// for the same key compute the value exactly once per process.
type Cache struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	places map[placeKey]*placeEntry
	hashes map[*lutnet.Circuit]codec.Hash // memoized content hashes
	store  *store.Store

	graphBuilds, graphHits       atomic.Uint64
	placeAnneals, placeHits      atomic.Uint64
	artifactHits, artifactMisses atomic.Uint64
	memFlushes                   atomic.Uint64

	placeTransfers, warmRouteNets atomic.Uint64
	baselineMisses                atomic.Uint64
}

// maybeFlushLocked empties the memo maps when the entry cap is exceeded.
// Callers hold c.mu.
func (c *Cache) maybeFlushLocked() {
	if len(c.graphs)+len(c.places)+len(c.hashes) <= memoryCapEntries {
		return
	}
	c.graphs = map[graphKey]*graphEntry{}
	c.places = map[placeKey]*placeEntry{}
	c.hashes = map[*lutnet.Circuit]codec.Hash{}
	c.memFlushes.Add(1)
}

// NewCache returns an empty in-memory cache, ready for concurrent use.
func NewCache() *Cache {
	return &Cache{
		graphs: map[graphKey]*graphEntry{},
		places: map[placeKey]*placeEntry{},
		hashes: map[*lutnet.Circuit]codec.Hash{},
	}
}

// NewCacheWithStore returns a cache backed by a persistent artifact store:
// the in-memory memos work exactly as in NewCache, and GetArtifact and
// PutArtifact read and write whole results in st. st may be nil, which
// is equivalent to NewCache.
func NewCacheWithStore(st *store.Store) *Cache {
	c := NewCache()
	c.store = st
	return c
}

// Store returns the persistent tier, or nil for a memory-only cache.
func (c *Cache) Store() *store.Store { return c.store }

// Stats is a snapshot of cache traffic, reported by mmbench and asserted
// by the warm-path tests (a warm sweep must show zero PlaceAnneals). It
// is the one definition of the cache's counters: each field's tags name
// its /metrics family (see obs.RegisterSnapshot), and String renders the
// same fields.
type Stats struct {
	// GraphBuilds counts routing-resource graphs built; GraphHits counts
	// requests served by an already-built graph. Graphs live in memory
	// only: building one costs about as much as loading it would, so a
	// new process builds every graph it routes over, and a warm process
	// shows GraphBuilds == 0 only where whole results came from the store
	// and no flow ran.
	GraphBuilds uint64 `metric:"mm_cache_graph_builds_total" help:"Routing-resource graphs built."`
	GraphHits   uint64 `metric:"mm_cache_graph_hits_total" help:"Graph requests served from memory."`
	// GraphLoads always reads 0: graphs are never stored, so none is
	// loaded. The field stays only because the benchmark harness
	// (bench/mmperf) still reads it; it goes when that read does.
	GraphLoads uint64 `metric:"mm_cache_graph_loads_total" help:"Always 0: graphs are built in memory, never loaded from the store (kept for the benchmark harness)."`
	// PlaceAnneals counts actual place.Place executions; PlaceHits counts
	// requests served by an already-annealed placement.
	PlaceAnneals uint64 `metric:"mm_cache_place_anneals_total" help:"Placement anneals executed."`
	PlaceHits    uint64 `metric:"mm_cache_place_hits_total" help:"Placement requests served from memory."`
	// ArtifactHits / ArtifactMisses count top-level artifact lookups —
	// whole group results (experiments.RunGroup) and whole compile
	// results (the service's warm path), the tiers consulted before
	// running any flow at all.
	ArtifactHits   uint64 `metric:"mm_cache_artifact_hits_total" help:"Top-level artifact store hits."`
	ArtifactMisses uint64 `metric:"mm_cache_artifact_misses_total" help:"Top-level artifact store misses."`
	// MemFlushes counts wholesale flushes of the in-memory tier (the
	// memoryCapEntries bound that keeps a long-running server's
	// footprint finite).
	MemFlushes uint64 `metric:"mm_cache_mem_flushes_total" help:"Wholesale flushes of the in-memory memo tier."`
	// PlaceTransfers counts placements taken over from a baseline (by
	// transfer-seeded anneal or, for content-only edits, inherited
	// as they are), and WarmRouteNets nets seeded from baseline routing
	// trees — the ECO delta path's reuse. BaselineMisses counts delta
	// compiles that fell back to the cold path because their baseline
	// was missing, corrupt or no longer fit the edited modes.
	PlaceTransfers uint64 `metric:"mm_cache_place_transfers_total" help:"Placements taken over from an ECO baseline."`
	WarmRouteNets  uint64 `metric:"mm_cache_warm_route_nets_total" help:"Nets seeded from ECO baseline routing trees."`
	BaselineMisses uint64 `metric:"mm_cache_baseline_misses_total" help:"Delta compiles that fell back to cold."`
	// Store is the persistent tier's own traffic (zero without a store).
	Store store.Stats
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		GraphBuilds:    c.graphBuilds.Load(),
		GraphHits:      c.graphHits.Load(),
		PlaceAnneals:   c.placeAnneals.Load(),
		PlaceHits:      c.placeHits.Load(),
		ArtifactHits:   c.artifactHits.Load(),
		ArtifactMisses: c.artifactMisses.Load(),
		MemFlushes:     c.memFlushes.Load(),
		PlaceTransfers: c.placeTransfers.Load(),
		WarmRouteNets:  c.warmRouteNets.Load(),
		BaselineMisses: c.baselineMisses.Load(),
	}
	if c.store != nil {
		s.Store = c.store.Stats()
	}
	return s
}

// String renders the snapshot as the one-line summary mmbench and
// mmserved log: every non-zero field as name=value, named by its
// /metrics family, in declaration order.
func (s Stats) String() string {
	var parts []string
	for _, f := range obs.Fields(s) {
		if f.Value != 0 {
			parts = append(parts, f.Name+"="+strconv.FormatFloat(f.Value, 'f', -1, 64))
		}
	}
	return strings.Join(parts, " ")
}

// CircuitHash returns the circuit's content hash, memoized per pointer so
// suites sharing circuit pointers across groups hash each circuit once.
func (c *Cache) CircuitHash(ct *lutnet.Circuit) codec.Hash {
	c.mu.Lock()
	h, ok := c.hashes[ct]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = codec.HashCircuit(ct)
	c.mu.Lock()
	c.maybeFlushLocked()
	c.hashes[ct] = h
	c.mu.Unlock()
	return h
}

type graphKey struct {
	side, w int
}

type graphEntry struct {
	once sync.Once
	g    *arch.Graph
}

// graph returns the routing-resource graph of a side×side region with
// channel width w, building it on first request.
func (c *Cache) graph(side, w int) *arch.Graph {
	c.mu.Lock()
	e := c.graphs[graphKey{side: side, w: w}]
	if e == nil {
		c.maybeFlushLocked()
		e = &graphEntry{}
		c.graphs[graphKey{side: side, w: w}] = e
	}
	c.mu.Unlock()
	built := false
	e.once.Do(func() {
		built = true
		c.graphBuilds.Add(1)
		g := arch.BuildGraph(arch.New(side, side, w))
		// Publish under mu so that Graphs — which cannot use once.Do
		// without racing to mark unbuilt entries done — can read e.g
		// safely; callers of graph() itself are ordered by once.Do.
		c.mu.Lock()
		e.g = g
		c.mu.Unlock()
	})
	if !built {
		c.graphHits.Add(1)
	}
	return e.g
}

// Graphs returns the graphs currently held by the cache, for tests and
// diagnostics (e.g. verifying that shared graphs were not mutated).
func (c *Cache) Graphs() []*arch.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*arch.Graph
	for _, e := range c.graphs {
		if e.g != nil { // published under mu; nil while a build is in flight
			out = append(out, e.g)
		}
	}
	return out
}

// placeKey identifies a placement by everything place.Place depends on:
// the circuit (by content hash — structurally equal circuits share the
// entry), the logic-array dimensions, and the annealer seed, effort and
// multi-start count. Channel width is deliberately absent: placement
// never looks at it (see placementChannelWidth).
type placeKey struct {
	circuit       codec.Hash
	width, height int
	seed          int64
	effort        float64
	starts        int
}

type placeEntry struct {
	once sync.Once
	pl   *place.Placement
	cc   place.CircuitCells
	err  error
}

// placement returns the annealed placement of circuit ct on a
// width×height logic array under the given seed, effort and multi-start
// count, computing it on first request per process. reg only observes the
// anneal that actually runs (and so stays out of the key) — a hit records
// nothing, which is exactly the work-done truth. The returned placement
// is shared: callers must treat it as immutable.
func (c *Cache) placement(ct *lutnet.Circuit, width, height int, seed int64, effort float64, starts int, reg *obs.Registry) (*place.Placement, place.CircuitCells, error) {
	if starts < 1 {
		starts = 1 // normalised so 0 and 1 share the (identical) entry
	}
	k := placeKey{circuit: c.CircuitHash(ct), width: width, height: height, seed: seed, effort: effort, starts: starts}
	c.mu.Lock()
	e := c.places[k]
	if e == nil {
		c.maybeFlushLocked()
		e = &placeEntry{}
		c.places[k] = e
	}
	c.mu.Unlock()
	computed := false
	e.once.Do(func() {
		computed = true
		c.placeAnneals.Add(1)
		a := arch.New(width, height, placementChannelWidth)
		prob, cc := place.FromCircuit(ct)
		pl, err := place.Place(prob, a, place.Options{Seed: seed, Effort: effort, Starts: starts, Obs: reg})
		e.pl, e.cc, e.err = pl, cc, err
	})
	if !computed {
		c.placeHits.Add(1)
	}
	return e.pl, e.cc, e.err
}

// GetArtifact looks a top-level artifact (a whole group result, a whole
// compile result) up in the persistent tier. It returns (nil, false) for
// memory-only caches, misses, and corrupt entries alike — callers
// recompute and PutArtifact heals the entry.
func (c *Cache) GetArtifact(key codec.Hash) ([]byte, bool) {
	if c.store == nil {
		return nil, false
	}
	data, err := c.store.Get(key)
	if err != nil {
		c.artifactMisses.Add(1)
		return nil, false
	}
	c.artifactHits.Add(1)
	return data, true
}

// PutArtifact stores a top-level artifact in the persistent tier (a no-op
// for memory-only caches; these artifacts need no in-process memo — a
// sweep evaluates each group exactly once, and mmserved's in-flight dedup
// covers the request level).
func (c *Cache) PutArtifact(key codec.Hash, data []byte) {
	if c.store == nil {
		return
	}
	_ = c.store.Put(key, data)
}

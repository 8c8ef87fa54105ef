package flow

import (
	"context"
	"strconv"
	"strings"
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

// memoryCapEntries bounds each of the cache's memos. A sweep or a CLI run
// never approaches it, but a long-running mmserved accumulates entries
// for the process lifetime; past the cap a memo is flushed wholesale
// (see memo), which buys a bounded footprint without per-entry LRU
// bookkeeping.
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
//     same entry regardless of pointer identity. The hash is taken on
//     every request: it costs tens of microseconds, next to the seconds
//     of the flow around it, and remembering it would pin every circuit
//     the cache was ever handed.
//
// Both memos live in memory only, each bounded by memoryCapEntries. A
// cache optionally carries a persistent artifact store (see
// NewCacheWithStore), but the store holds whole results only — group
// results, compile results and ECO baselines, read and written one
// layer up through GetArtifact and PutArtifact — so what
// survives the process is exactly what a caller asks for. Everything
// cached is a pure function of its key, so cached and uncached runs
// produce identical results; a Cache only changes how often the work is
// done. All methods are safe for concurrent use, and concurrent requests
// for the same key compute the value exactly once per process.
type Cache struct {
	graphs *memo[graphKey, *arch.Graph]
	places *memo[placeKey, placed]
	store  *store.Store

	graphBuilds, graphHits       atomic.Uint64
	placeAnneals, placeHits      atomic.Uint64
	artifactHits, artifactMisses atomic.Uint64
	memFlushes                   atomic.Uint64

	placeTransfers, warmRouteNets atomic.Uint64
	baselineMisses                atomic.Uint64
}

// NewCache returns an empty in-memory cache, ready for concurrent use.
func NewCache() *Cache {
	c := &Cache{}
	c.graphs = newMemo[graphKey, *arch.Graph](memoryCapEntries, &c.memFlushes)
	c.places = newMemo[placeKey, placed](memoryCapEntries, &c.memFlushes)
	return c
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
	// MemFlushes counts wholesale flushes of the in-memory memos (the
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

type graphKey struct {
	side, w int
}

// graph returns the routing-resource graph of a side×side region with
// channel width w, building it on first request.
func (c *Cache) graph(side, w int) *arch.Graph {
	g, built, _ := c.graphs.get(context.Background(), graphKey{side: side, w: w}, func() (*arch.Graph, error) {
		return arch.BuildGraph(arch.New(side, side, w)), nil
	})
	if built {
		c.graphBuilds.Add(1)
	} else {
		c.graphHits.Add(1)
	}
	return g
}

// Graphs returns the graphs currently held by the cache, for tests and
// diagnostics (e.g. verifying that shared graphs were not mutated).
func (c *Cache) Graphs() []*arch.Graph { return c.graphs.values() }

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

// placed is a memoized placement with the cell encoding it indexes.
type placed struct {
	pl *place.Placement
	cc place.CircuitCells
}

// placement returns the annealed placement of circuit ct on a
// width×height logic array under the given seed, effort and multi-start
// count, computing it on first request per process. The anneal runs
// uncancelled, because its result is shared. reg only observes the
// anneal that actually runs (and so stays out of the key) — a hit
// records nothing, which is exactly the work-done truth. The returned
// placement is shared: callers must treat it as immutable.
func (c *Cache) placement(ct *lutnet.Circuit, width, height int, seed int64, effort float64, starts int, reg *obs.Registry) (*place.Placement, place.CircuitCells, error) {
	if starts < 1 {
		starts = 1 // normalised so 0 and 1 share the (identical) entry
	}
	k := placeKey{circuit: codec.HashCircuit(ct), width: width, height: height, seed: seed, effort: effort, starts: starts}
	p, annealed, err := c.places.get(context.Background(), k, func() (placed, error) {
		a := arch.New(width, height, placementChannelWidth)
		prob, cc := place.FromCircuit(ct)
		pl, err := place.Place(prob, a, place.Options{Seed: seed, Effort: effort, Starts: starts, Obs: reg})
		return placed{pl, cc}, err
	})
	if annealed {
		c.placeAnneals.Add(1)
	} else {
		c.placeHits.Add(1)
	}
	return p.pl, p.cc, err
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

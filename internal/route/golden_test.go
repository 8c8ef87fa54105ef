package route

import (
	"errors"
	"testing"
)

// hashResult folds a complete routing result into one FNV-1a value: every
// tree's nodes, topological edges and mode masks, in net order. Any change
// to any routed path changes the hash.
func hashResult(res *Result) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, t := range res.Trees {
		mix(uint64(len(t.Nodes)))
		for i, n := range t.Nodes {
			mix(uint64(uint32(n)))
			mix(t.NodeMasks[i])
		}
		mix(uint64(len(t.Edges)))
		for _, e := range t.Edges {
			mix(uint64(uint32(e.From))<<32 | uint64(uint32(e.To)))
		}
	}
	mix(uint64(res.Iterations))
	return h
}

// goldenRouted pins the exact routed results of three seeded congested
// multi-mode workloads, recorded before the node-major SoA layout swap.
// The flat congestion arrays, the precomputed base costs and the SoA
// coordinate lower bound must keep every nodeCost evaluation bit-identical
// (same summation order over m = 0..ModeCount-1), so the routed trees —
// and therefore these hashes — must never move. A mismatch means the
// layout change altered results and would require artifact version bumps.
var goldenRouted = map[int64]uint64{
	1: 0xb720d85285557f6d,
	2: 0xccb0ede20548366d,
	5: 0xd90a30a875a19468,
}

// TestRoutedResultGoldenHashes asserts byte-identical routed results
// across the SoA layout swap and the removal of the router's worker pool.
func TestRoutedResultGoldenHashes(t *testing.T) {
	for seed, want := range goldenRouted {
		g, nets, opt := randomWorkload(seed)
		res, err := Route(g, nets, opt)
		if err != nil {
			var un *ErrUnroutable
			if errors.As(err, &un) {
				t.Fatalf("seed %d: workload became unroutable: %v", seed, err)
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := hashResult(res); got != want {
			t.Errorf("seed %d: routed result hash %#x, golden %#x — routed results moved",
				seed, got, want)
		}
	}
}

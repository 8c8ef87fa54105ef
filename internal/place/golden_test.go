package place

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/arch"
)

// hashPlacement folds a complete Placement into one FNV-1a value: every
// cell's site and the cost's exact bits. Any moved cell changes the hash.
func hashPlacement(pl *Placement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	mix(uint64(len(pl.SiteOf)))
	for _, s := range pl.SiteOf {
		io := uint64(0)
		if s.IsIO {
			io = 1
		}
		mix(uint64(s.X)<<48 | uint64(s.Y)<<32 | uint64(s.Sub)<<1 | io)
	}
	mix(math.Float64bits(pl.Cost))
	return h.Sum64()
}

// goldenPlaced pins the exact placements the batched annealing protocol
// produces for one seeded problem on each entry path of Place: a cold
// random start, a refinement of that result (Init), an ECO-style quench
// of it (Init + WarmStart), and a two-start run. The fixed-64 batch
// protocol defines these trajectories; a mismatch means placement results
// moved and would require bumping the result versions that cover them
// (experiments.groupResultVersion, service.resultVersion).
var goldenPlaced = map[string]uint64{
	"cold":      0x8e31f9350e366197,
	"refine":    0xaa5360a149f5c38c,
	"warmstart": 0xda367d2a1cf57352,
	"starts2":   0xdde86e7e33677025,
}

// TestPlacedResultGoldenHashes asserts byte-identical placements on every
// entry path of Place.
func TestPlacedResultGoldenHashes(t *testing.T) {
	a := arch.New(7, 7, 4)
	p := randomProblem(21, 24, 14, 50)
	cold, err := Place(p, a, Options{Seed: 21, Effort: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*Placement{"cold": cold}
	for name, opt := range map[string]Options{
		"refine":    {Seed: 4, Effort: 0.2, Init: cold.SiteOf},
		"warmstart": {Seed: 4, Effort: 0.2, Init: cold.SiteOf, WarmStart: true},
		"starts2":   {Seed: 5, Effort: 0.3, Starts: 2},
	} {
		if got[name], err = Place(p, a, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, want := range goldenPlaced {
		if h := hashPlacement(got[name]); h != want {
			t.Errorf("%s: placement hash %#x, golden %#x — placement results moved", name, h, want)
		}
	}
}

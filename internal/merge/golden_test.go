package merge

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/lutnet"
)

// hashResult folds a complete combined placement into one FNV-1a value:
// the grouping assignment of every mode's blocks and pads, every group's
// site, the cost's exact bits and the connection counts. The Tunable
// circuit is a function of the assignment, so any moved cell changes the
// hash.
func hashResult(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(uint64(x))
		}
	}
	sites := func(ss []arch.Site) {
		mix(uint64(len(ss)))
		for _, s := range ss {
			mix(uint64(s.X)<<32 | uint64(s.Y)<<16 | uint64(s.Sub))
		}
	}
	asg := res.Assignment
	for m := range asg.BlockGroup {
		ints(asg.BlockGroup[m])
		ints(asg.PIGroup[m])
		ints(asg.POGroup[m])
	}
	sites(res.LUTSite)
	sites(res.PadSite)
	mix(math.Float64bits(res.Cost))
	mix(uint64(res.TotalModeConns))
	mix(uint64(res.TunableConns))
	return h.Sum64()
}

// goldenCombined pins the exact combined placements the batched annealing
// protocol produces for one seeded three-mode problem under both
// objectives and for a two-start run. The fixed-64 batch protocol defines
// these trajectories; a mismatch means combined-placement results moved
// and would require artifact version bumps.
var goldenCombined = map[string]uint64{
	"wire-length": 0x1e74c918cb7847e6,
	"edge-match":  0x51a05d05d1fe0300,
	"starts2":     0x0f7df1acba9f64db,
}

// TestCombinedResultGoldenHashes asserts byte-identical combined
// placements under both objectives and with multiple starts.
func TestCombinedResultGoldenHashes(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 60, 30),
		randomCircuit(t, 61, 30),
		randomCircuit(t, 62, 30),
	}
	a := archFor(modes)
	for name, opt := range map[string]Options{
		"wire-length": {Seed: 7, Effort: 0.2, Objective: WireLength},
		"edge-match":  {Seed: 7, Effort: 0.2, Objective: EdgeMatch},
		"starts2":     {Seed: 9, Effort: 0.2, Starts: 2},
	} {
		res, err := CombinedPlace("golden", modes, a, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h := hashResult(res); h != goldenCombined[name] {
			t.Errorf("%s: combined placement hash %#x, golden %#x — combined-placement results moved",
				name, h, goldenCombined[name])
		}
	}
}

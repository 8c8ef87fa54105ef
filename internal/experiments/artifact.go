package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/codec"
	"repro/internal/flow"
	"repro/internal/lutnet"
)

// Group results are the top-level artifact of a sweep: one entry is a
// whole benchmark × group evaluation — region sizing, the MDR baseline
// and both DCS objectives — so a warm store turns the dominant cost of a
// sweep (annealing and routing every group) into one read and a decode.
// The payload is the GroupResult's JSON, the encoding the service uses
// for its compile results.
const (
	kindGroupResult = "group-result"
	// groupResultVersion covers the payload format AND the semantics of
	// everything RunGroup executes (flow.RunComparison, the switch-cost
	// matrices, region sizing). Bump it whenever either changes: the
	// version is hashed into the key, so a bump orphans stale entries
	// instead of serving results an updated algorithm would no longer
	// produce.
	//
	// v2: the connection-based incremental router (routing trajectories
	// changed) and the router-stats fields in the encoding.
	//
	// v3: the batched parallel-move annealing kernel (placement
	// trajectories changed) and the multi-start count in the key.
	//
	// v4: the payload is JSON instead of a hand-written binary encoding
	// (results unchanged).
	groupResultVersion = 4
)

// groupResultKey derives the content-addressed store key of one group
// evaluation: the canonical group name, the content hashes of the mode
// circuits (in group order), and the scale knobs RunGroup feeds into
// flow.Config. Everything else RunGroup depends on is constant per
// groupResultVersion.
func groupResultKey(c *flow.Cache, name string, modes []*lutnet.Circuit, sc Scale) codec.Hash {
	w := codec.NewWriter()
	w.Header(kindGroupResult, groupResultVersion)
	w.String(name)
	w.Uvarint(uint64(len(modes)))
	for _, m := range modes {
		h := c.CircuitHash(m)
		w.String(h.Hex())
	}
	w.Float64(sc.Effort)
	w.Varint(sc.Seed)
	starts := sc.PlaceStarts
	if starts < 1 {
		starts = 1 // normalised: 0 and 1 starts are the same computation
	}
	w.Int(starts)
	return w.Sum()
}

// decodeGroupResult reads a stored group result. Any malformation returns
// an error and the caller falls back to recomputing the group.
func decodeGroupResult(data []byte) (*GroupResult, error) {
	var res GroupResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if len(res.ModeLUTs) < 2 {
		return nil, fmt.Errorf("experiments: stored group result has %d modes", len(res.ModeLUTs))
	}
	return &res, nil
}

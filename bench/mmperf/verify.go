package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/flow"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/route"
)

// The oracle. Every output is checked against a reference that does not
// come from the flow under test: implementations are simulated against
// the generated source netlist, routing legality is recounted from the
// routed trees, and a warm answer must equal the cold answer it caches.

// simVectors is the number of seeded input vectors each implemented mode
// is simulated for.
const simVectors = 64

// simEqual simulates impl against its source netlist, cycle by cycle.
func simEqual(src *netlist.Netlist, impl *lutnet.Circuit, seed int64) error {
	got, err := lutnet.NewSimulator(impl)
	if err != nil {
		return err
	}
	ref := netlist.NewSimulator(src)
	names := ref.InputNames()
	in := make(map[string]bool, len(names))
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < simVectors; cyc++ {
		for _, nm := range names {
			in[nm] = rng.Intn(2) == 0
		}
		want, have := ref.Step(in), got.Step(in)
		for _, o := range src.Outputs {
			v, ok := have[o.Name]
			if !ok {
				return fmt.Errorf("output %s missing from the implementation", o.Name)
			}
			if v != want[o.Name] {
				return fmt.Errorf("cycle %d output %s = %v, source netlist says %v", cyc, o.Name, v, want[o.Name])
			}
		}
	}
	return nil
}

// assembleMDR produces one MDR mode's configuration bitstream and pad
// naming.
func assembleMDR(region *flow.Region, impl flow.ModeImpl) (*bitstream.Config, bitstream.PadNames, error) {
	g, c := region.Graph, impl.Cells.Circuit
	cfg, err := bitstream.Assemble(g, c, impl.Cells, impl.Placement, impl.Nets, impl.Routing)
	if err != nil {
		return nil, bitstream.PadNames{}, err
	}
	names, err := bitstream.CircuitPadNames(g, c, impl.Cells, impl.Placement)
	return cfg, names, err
}

// checkConfig decodes a configuration back into a circuit and simulates
// it against the source netlist.
func checkConfig(g *arch.Graph, cfg *bitstream.Config, names bitstream.PadNames, src *netlist.Netlist, seed int64) error {
	decoded, err := bitstream.Decode(g, cfg, names)
	if err != nil {
		return err
	}
	return simEqual(src, decoded, seed)
}

// checkWires recounts TRoute's mode-aware sharing: no wire node may carry
// two nets that are active in a common mode.
func checkWires(g *arch.Graph, trees []route.Tree, nModes int) error {
	all := uint64(1)<<uint(nModes) - 1
	used := make([]uint64, g.NumNodes())
	owner := make([]int, g.NumNodes())
	for ni, t := range trees {
		for j, node := range t.Nodes {
			if !g.Nodes[node].IsWire() {
				continue
			}
			mask := all
			if j < len(t.NodeMasks) && t.NodeMasks[j] != 0 {
				mask = t.NodeMasks[j]
			}
			if used[node]&mask != 0 {
				return fmt.Errorf("wire node %d carries nets %d and %d in mode set %b", node, owner[node], ni, used[node]&mask)
			}
			used[node] |= mask
			owner[node] = ni
		}
	}
	return nil
}

// checkComparison verifies every implementation of one compile: each MDR
// mode through its assembled and decoded bitstream, each DCS mode of both
// objectives through Tunable.ExtractMode, and both TRoute results'
// wire sharing.
func checkComparison(src []*netlist.Netlist, cmp *flow.Comparison, seed int64) error {
	region := cmp.Region
	for m, impl := range cmp.MDR.PerMode {
		cfg, names, err := assembleMDR(region, impl)
		if err == nil {
			err = checkConfig(region.Graph, cfg, names, src[m], seed)
		}
		if err != nil {
			return fmt.Errorf("MDR mode %d: %w", m, err)
		}
	}
	for _, obj := range []string{"EdgeMatch", "WireLength"} {
		dcs := cmp.EdgeMatch
		if obj == "WireLength" {
			dcs = cmp.WireLen
		}
		for m := range src {
			c, err := dcs.Merge.Tunable.ExtractMode(m)
			if err == nil {
				err = simEqual(src[m], c, seed)
			}
			if err != nil {
				return fmt.Errorf("DCS %s mode %d: %w", obj, m, err)
			}
		}
		if err := checkWires(region.Graph, dcs.TRoute.Route.Trees, len(src)); err != nil {
			return fmt.Errorf("TRoute %s: %w", obj, err)
		}
	}
	return nil
}

// withoutTimings re-encodes a compile response without its wall-clock
// timings, the one field a warm answer may not share with the cold one.
func withoutTimings(body []byte) ([]byte, json.RawMessage, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, err
	}
	timings := doc["timings"]
	delete(doc, "timings")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(doc)
	return buf.Bytes(), timings, err
}

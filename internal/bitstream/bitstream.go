// Package bitstream assembles and decodes full configurations of the
// reconfigurable region — the artefact the reconfiguration manager writes.
// A Config holds the value of every LUT bit (2^K truth-table bits plus the
// FF-select bit per logic block) and every routing bit (one per
// programmable switch). Assembly resolves the LUT-input permutation chosen
// by the router (input pins of a LUT are logically equivalent, so the
// truth table must be permuted to match the pins the nets landed on); the
// decoder reverses the process, reconstructing a LUT circuit from bits
// alone. Together they close the loop for verification: the circuit
// decoded from an assembled configuration must be cycle-equivalent to the
// source circuit, and the number of bits differing between two modes'
// configurations is exactly what the paper's Diff/DCS accounting counts.
package bitstream

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/logic"
)

// Config is a full configuration of a region.
type Config struct {
	Arch    arch.Arch
	LUT     []bool // Arch.TotalLUTBits() entries, CLB sites row-major
	Routing []bool // one per routing bit id
}

// NewConfig returns an all-zero configuration (the erased fabric).
func NewConfig(a arch.Arch, g *arch.Graph) *Config {
	return &Config{
		Arch:    a,
		LUT:     make([]bool, a.TotalLUTBits()),
		Routing: make([]bool, g.NumRoutingBits),
	}
}

// lutBase returns the first LUT-bit index of the CLB at (x, y).
func (c *Config) lutBase(x, y int) int {
	return ((y-1)*c.Arch.Width + (x - 1)) * c.Arch.LUTBitsPerCLB()
}

// SetLUT writes the truth table and FF-select bit of the CLB at (x, y).
// The table must already be expressed over the K physical input pins.
func (c *Config) SetLUT(x, y int, tt logic.TT, hasFF bool) error {
	if tt.NumVars != c.Arch.K {
		return fmt.Errorf("bitstream: LUT table has %d vars, want %d", tt.NumVars, c.Arch.K)
	}
	base := c.lutBase(x, y)
	for b := 0; b < 1<<uint(c.Arch.K); b++ {
		c.LUT[base+b] = tt.Get(b)
	}
	c.LUT[base+1<<uint(c.Arch.K)] = hasFF
	return nil
}

// GetLUT reads back the truth table and FF-select bit of the CLB at (x, y).
func (c *Config) GetLUT(x, y int) (logic.TT, bool) {
	base := c.lutBase(x, y)
	tt := logic.ConstTT(c.Arch.K, false)
	for b := 0; b < 1<<uint(c.Arch.K); b++ {
		if c.LUT[base+b] {
			tt = tt.Set(b, true)
		}
	}
	return tt, c.LUT[base+1<<uint(c.Arch.K)]
}

// DiffBits counts configuration bits whose value differs between the two
// configurations, split into LUT and routing contributions.
func DiffBits(a, b *Config) (lutDiff, routingDiff int, err error) {
	if len(a.LUT) != len(b.LUT) || len(a.Routing) != len(b.Routing) {
		return 0, 0, fmt.Errorf("bitstream: configurations of different regions")
	}
	for i := range a.LUT {
		if a.LUT[i] != b.LUT[i] {
			lutDiff++
		}
	}
	for i := range a.Routing {
		if a.Routing[i] != b.Routing[i] {
			routingDiff++
		}
	}
	return lutDiff, routingDiff, nil
}

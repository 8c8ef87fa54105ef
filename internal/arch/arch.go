// Package arch models the target FPGA: an island-style array of logic
// blocks (one K-LUT plus one flip-flop each, the 4lut_sanitized.arch block
// of VPR), a perimeter ring of I/O pads, and a routing fabric of
// unit-length wire segments joined by disjoint switch blocks with
// connection blocks of configurable flexibility. It also builds the
// routing-resource graph consumed by the router and defines the
// configuration-bit model used for reconfiguration-time accounting.
package arch

import "fmt"

// Arch describes an island-style FPGA.
type Arch struct {
	Width  int // logic columns (CLB x in 1..Width)
	Height int // logic rows   (CLB y in 1..Height)
	K      int // LUT inputs per logic block
	W      int // routing tracks per channel
	IOCap  int // pads per perimeter position
	// FcIn is the number of tracks of the adjacent channel each logic-block
	// input pin can connect to; FcOut likewise for output pins.
	FcIn  int
	FcOut int
}

// New returns an architecture with the parameters used throughout the
// paper's experiments: 4-LUT logic blocks, unit-length segments, I/O
// capacity 2, and connection-block flexibility scaled from the channel
// width.
func New(width, height, channelWidth int) Arch {
	// Connection-block flexibility: half the channel, but at least K
	// consecutive tracks so that every (output, input-pin) pair shares a
	// track — with track-preserving straight switches, narrower windows
	// can partition the channel into mutually unreachable domains.
	fc := channelWidth / 2
	if fc < 4 {
		fc = 4
	}
	if fc > channelWidth {
		fc = channelWidth
	}
	return Arch{
		Width: width, Height: height,
		K: 4, W: channelWidth, IOCap: 2,
		FcIn: fc, FcOut: fc,
	}
}

// OnRing reports whether tile (x, y) lies on the I/O ring around the
// logic array, where the pads are.
func (a Arch) OnRing(x, y int) bool {
	return x == 0 || y == 0 || x == a.Width+1 || y == a.Height+1
}

// NumCLBs returns the number of logic-block sites.
func (a Arch) NumCLBs() int { return a.Width * a.Height }

// NumIOSites returns the number of pad sites (perimeter positions × IOCap).
func (a Arch) NumIOSites() int { return 2 * (a.Width + a.Height) * a.IOCap }

// LUTBitsPerCLB returns the configuration bits of one logic block: the
// 2^K truth-table bits plus the bit selecting the registered output.
func (a Arch) LUTBitsPerCLB() int { return 1<<uint(a.K) + 1 }

// TotalLUTBits returns the LUT configuration bits of the whole region.
func (a Arch) TotalLUTBits() int { return a.NumCLBs() * a.LUTBitsPerCLB() }

// Site is a placement location: a logic block (IsIO false, Sub 0) or one
// pad of a perimeter position (IsIO true, Sub < IOCap).
type Site struct {
	X, Y, Sub int
	IsIO      bool
}

func (s Site) String() string {
	if s.IsIO {
		return fmt.Sprintf("io(%d,%d).%d", s.X, s.Y, s.Sub)
	}
	return fmt.Sprintf("clb(%d,%d)", s.X, s.Y)
}

// CLBSites lists all logic-block sites in row-major order.
func (a Arch) CLBSites() []Site {
	sites := make([]Site, 0, a.NumCLBs())
	for y := 1; y <= a.Height; y++ {
		for x := 1; x <= a.Width; x++ {
			sites = append(sites, Site{X: x, Y: y})
		}
	}
	return sites
}

// IOSites lists all pad sites clockwise from the bottom edge.
func (a Arch) IOSites() []Site {
	var sites []Site
	add := func(x, y int) {
		for s := 0; s < a.IOCap; s++ {
			sites = append(sites, Site{X: x, Y: y, Sub: s, IsIO: true})
		}
	}
	for x := 1; x <= a.Width; x++ {
		add(x, 0) // bottom
	}
	for y := 1; y <= a.Height; y++ {
		add(a.Width+1, y) // right
	}
	for x := a.Width; x >= 1; x-- {
		add(x, a.Height+1) // top
	}
	for y := a.Height; y >= 1; y-- {
		add(0, y) // left
	}
	return sites
}

// MinGridForBlocks returns the side of the smallest square logic array that
// fits nblocks logic blocks and the I/O count, with the square area relaxed
// by the given factor (the paper chooses the area 20% bigger than the
// minimum, i.e. relax=1.2, for relaxed routing).
func MinGridForBlocks(nblocks, nios int, relax float64) int {
	side := 1
	for side*side < nblocks {
		side++
	}
	// I/O ring must also fit: 2*(w+h)*IOCap ≥ nios with IOCap=2.
	for 8*side < nios {
		side++
	}
	area := float64(side*side) * relax
	relaxed := side
	for float64(relaxed*relaxed) < area {
		relaxed++
	}
	return relaxed
}

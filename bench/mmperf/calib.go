package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The box the benchmark runs on is a few virtual cores of a shared host,
// and its speed drifts: a fixed CPU kernel timed back to back for four
// minutes read 22-32 ms in 10 s windows, in slow and fast stretches of a
// minute or two. Longer runs do not average that out, so every time the
// benchmark reports is scaled to a reference speed. Between measured
// operations it times a fixed kernel — a shortest-path search over a
// seeded random graph, heap-bound and cache-missing like the router and
// annealers, plus a register-only loop; written here and not in the
// program, so that no change to the program moves it — and multiplies
// each raw time by calRefMs divided by the run's median kernel time. The
// record keeps that median (cal_ms), so every raw time can be recovered.

// calRefMs is the kernel's median time on the box the bounds were set
// on; it only fixes the scale of the reported times.
const calRefMs = 33.0

// calGraph is the kernel's input, a directed graph in compressed rows,
// and its scratch, allocated once so that the kernel allocates nothing.
type calGraph struct {
	start []int32
	to    []int32
	w     []float32
	dist  []float32
	heap  []calItem
}

type calItem struct {
	d float32
	n int32
}

func newCalGraph() *calGraph {
	const n, deg = 60000, 4
	r := rand.New(rand.NewSource(7))
	g := &calGraph{start: make([]int32, n+1), dist: make([]float32, n), heap: make([]calItem, 0, n*deg)}
	for i := 0; i < n; i++ {
		g.start[i] = int32(len(g.to))
		for d := 0; d < deg; d++ {
			g.to = append(g.to, int32(r.Intn(n)))
			g.w = append(g.w, 1+r.Float32())
		}
	}
	g.start[n] = int32(len(g.to))
	return g
}

// calKernel is the calibration kernel: a memory-bound search and a
// compute-bound loop of about the same length, since the program does
// both and a slow stretch of the host slows the two by different amounts.
// It returns a value derived from both, which the caller keeps, so that
// no work is optimised away.
func calKernel(g *calGraph) uint64 {
	return uint64(dijkstra(g)) ^ xorshift(6_000_000)
}

// dijkstra runs Dijkstra from node 0 with a binary heap and returns one
// distance.
func dijkstra(g *calGraph) float32 {
	dist := g.dist
	for i := range dist {
		dist[i] = 1e30
	}
	dist[0] = 0
	h := append(g.heap[:0], calItem{0, 0})
	for len(h) > 0 {
		it := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			m := i
			if l := 2*i + 1; l < len(h) && h[l].d < h[m].d {
				m = l
			}
			if r := 2*i + 2; r < len(h) && h[r].d < h[m].d {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		if it.d > dist[it.n] {
			continue
		}
		for e := g.start[it.n]; e < g.start[it.n+1]; e++ {
			v, nd := g.to[e], it.d+g.w[e]
			if nd >= dist[v] {
				continue
			}
			dist[v] = nd
			h = append(h, calItem{nd, v})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
	}
	return dist[len(dist)/2]
}

// xorshift runs n steps of a xorshift generator, all in registers.
func xorshift(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// speedometer collects kernel timings over one run.
type speedometer struct {
	g    *calGraph
	ms   []float64
	sink uint64 // the kernel's results, kept so that none is discarded
}

func newSpeedometer() *speedometer { return &speedometer{g: newCalGraph()} }

// sample times the kernel three times. The benchmark calls it between
// measured operations, never inside one. It first finishes any garbage
// collection the last operation left due, so that neither the kernel nor
// the next operation pays for the previous one's garbage, and runs the
// kernel once untimed to bring its input back into cache.
func (s *speedometer) sample() {
	runtime.GC()
	s.sink ^= calKernel(s.g)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s.sink ^= calKernel(s.g)
		s.ms = append(s.ms, ms(time.Since(t0)))
	}
}

// median is the run's median kernel time in ms.
func (s *speedometer) median() float64 { return median(s.ms) }

// scale converts a raw time of this run to the reference speed.
func (s *speedometer) scale() float64 { return calRefMs / s.median() }

// scaleTimes brings a run's end-to-end times and rates to the reference
// speed. The per-layer metrics of a traced run stay raw: they are read as
// shares of one run, not compared across runs against a bound.
func scaleTimes(rec *record, scale float64) {
	for _, d := range endToEnd {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		switch d.Unit {
		case "s", "ms":
			m.Value *= scale
		case "ops/s":
			m.Value /= scale
		}
		rec.Metrics[d.Name] = m
	}
}

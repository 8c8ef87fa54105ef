package anneal

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestScheduleCooling(t *testing.T) {
	s := NewSchedule(5, 20, 100, 1.0)
	if s.T != 100 {
		t.Fatalf("T0 = %v, want 20*sigma = 100", s.T)
	}
	if s.RLim != 20 {
		t.Fatalf("RLim = %v, want span", s.RLim)
	}
	if s.Moves < 64 {
		t.Fatalf("Moves = %d below floor", s.Moves)
	}
	// High acceptance cools fast and widens the range limit cap.
	for i := 0; i < 100; i++ {
		s.Record(true)
	}
	t0 := s.T
	s.Next(1, 20)
	if s.T != t0*0.5 {
		t.Fatalf("gamma at high acceptance: T %v -> %v, want halved", t0, s.T)
	}
	if s.RLim != 20 {
		t.Fatalf("RLim %v must stay capped at span", s.RLim)
	}
	// Low acceptance shrinks the range limit towards 1.
	for i := 0; i < 100; i++ {
		s.Record(false)
	}
	s.Next(1, 20)
	if s.RLim >= 20 {
		t.Fatalf("RLim %v must shrink at low acceptance", s.RLim)
	}
	// Termination: the schedule stops once T falls below the cost scale.
	s.T = 0.004
	if s.Next(1, 20) {
		t.Fatal("schedule must stop below 0.005*costPerNet")
	}
}

func TestScheduleDegenerate(t *testing.T) {
	if s := NewSchedule(0, 10, 1, 1.0); s.T != 1 {
		t.Fatalf("zero sigma must fall back to T0=1, got %v", s.T)
	}
	if s := NewSchedule(1, 10, 0, 0.01); s.Moves != 64 {
		t.Fatalf("move floor = %d, want 64", s.Moves)
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev(nil); got != 1 {
		t.Fatalf("Stddev(nil) = %v, want 1", got)
	}
	if got := Stddev([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("constant stddev = %v, want 0", got)
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 1, 10) != 5 || Clamp(-3, 1, 10) != 1 || Clamp(42, 1, 10) != 10 {
		t.Fatal("Clamp bounds wrong")
	}
}

// lineMover is a toy Mover: n cells on an integer line of n slots, cost =
// sum of |pos(i) - pos(i+1)| over a chain. Optimal order has cost n-1.
// With adversarial set, Claims reports the same single footprint key for
// every proposal — so within a batch everything after the first accepted
// commit conflicts — which is the livelock regression fixture: the kernel
// must still make progress through such a batch.
type lineMover struct {
	posOf        []int
	cellAt       []int
	cost         float64
	mvA          int
	mvB          int
	slotA, slotB []int
	adversarial  bool
}

func newLineMover(n int, rng *rand.Rand, adversarial bool) *lineMover {
	m := &lineMover{posOf: make([]int, n), cellAt: make([]int, n), adversarial: adversarial}
	for i, p := range rng.Perm(n) {
		m.posOf[i] = p
		m.cellAt[p] = i
	}
	m.cost = m.fullCost()
	return m
}

func (m *lineMover) fullCost() float64 {
	c := 0.0
	for i := 0; i+1 < len(m.posOf); i++ {
		c += math.Abs(float64(m.posOf[i] - m.posOf[i+1]))
	}
	return c
}

// pick draws a range-limited position pair; ok is false for a no-op.
func (m *lineMover) pick(rng *rand.Rand, rlim float64) (posA, posB int, ok bool) {
	a := rng.Intn(len(m.posOf))
	posA = m.posOf[a]
	r := int(rlim)
	if r < 1 {
		r = 1
	}
	posB = Clamp(posA+rng.Intn(2*r+1)-r, 0, len(m.posOf)-1)
	return posA, posB, posA != posB
}

// apply swaps the occupants of posA and posB, leaving the move for Undo.
func (m *lineMover) apply(posA, posB int) float64 {
	m.mvA, m.mvB = posA, posB
	m.swap(posA, posB)
	nc := m.fullCost()
	d := nc - m.cost
	m.cost = nc
	return d
}

func (m *lineMover) swap(posA, posB int) {
	ca, cb := m.cellAt[posA], m.cellAt[posB]
	m.cellAt[posA], m.cellAt[posB] = cb, ca
	m.posOf[ca], m.posOf[cb] = posB, posA
}

func (m *lineMover) Undo() {
	m.swap(m.mvA, m.mvB)
	m.cost = m.fullCost()
}

func (m *lineMover) Cost() float64 { return m.cost }

func (m *lineMover) SetupBatch(slots int) {
	m.slotA = make([]int, slots)
	m.slotB = make([]int, slots)
}

func (m *lineMover) Propose(rng *rand.Rand, rlim float64, slot int) bool {
	posA, posB, ok := m.pick(rng, rlim)
	m.slotA[slot], m.slotB[slot] = posA, posB
	return ok
}

func (m *lineMover) Claims(slot int, buf []int64) []int64 {
	if m.adversarial {
		return append(buf, 0)
	}
	return append(buf, int64(m.slotA[slot]), int64(m.slotB[slot]))
}

func (m *lineMover) ApplySlot(slot int) float64 {
	return m.apply(m.slotA[slot], m.slotB[slot])
}

// TestRunImprovesToyProblem anneals the line ordering and checks the
// kernel actually optimises — final cost well below the random start —
// and that the maintained cost matches a from-scratch recompute.
func TestRunImprovesToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newLineMover(40, rng, false)
	start := m.Cost()
	Run(m, Config{Effort: 1, Span: 40, Cells: 40, Nets: 39}, rng)
	if m.Cost() > 0.5*start {
		t.Fatalf("annealing did not improve: %v -> %v", start, m.Cost())
	}
	if got := m.fullCost(); got != m.Cost() {
		t.Fatalf("maintained cost %v != recomputed %v", m.Cost(), got)
	}
}

// TestRunDeterministic: same seed, same trajectory — the same final state
// and the same move/accept/requeue/batch statistics.
func TestRunDeterministic(t *testing.T) {
	run := func() ([]int, RunStats) {
		rng := rand.New(rand.NewSource(321))
		m := newLineMover(40, rng, false)
		stats := Run(m, Config{Effort: 1, Span: 40, Cells: 40, Nets: 39}, rng)
		return m.posOf, stats
	}
	posA, statsA := run()
	posB, statsB := run()
	if statsA.Batches == 0 || statsA.Moves == 0 {
		t.Fatalf("batch protocol not exercised: %+v", statsA)
	}
	if !reflect.DeepEqual(posA, posB) || statsA != statsB {
		t.Fatalf("same seed diverged: stats %+v vs %+v", statsA, statsB)
	}
}

// TestRunRefineKeepsGoodSolution: with Refine set, an already-optimal
// ordering must not be destroyed by the opening temperature.
func TestRunRefineKeepsGoodSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &lineMover{posOf: make([]int, 30), cellAt: make([]int, 30)}
	for i := range m.posOf {
		m.posOf[i], m.cellAt[i] = i, i
	}
	m.cost = m.fullCost() // optimal: 29
	Run(m, Config{Effort: 0.5, Span: 30, Cells: 30, Nets: 29, Refine: true, RefineTempFraction: 0.1}, rng)
	if m.Cost() > 1.5*29 {
		t.Fatalf("refinement destroyed optimal solution: cost %v", m.Cost())
	}
}

// TestRunDisabled: zero cells or nets must leave the state untouched.
func TestRunDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newLineMover(10, rng, false)
	before := append([]int(nil), m.posOf...)
	Run(m, Config{Effort: 1, Span: 10, Cells: 0, Nets: 5}, rng)
	Run(m, Config{Effort: 1, Span: 10, Cells: 10, Nets: 0}, rng)
	for i := range before {
		if m.posOf[i] != before[i] {
			t.Fatal("disabled run mutated state")
		}
	}
}

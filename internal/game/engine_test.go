package game

import (
	"errors"
	"math"
	"testing"

	"unbiasedfl/internal/stats"
)

// engineGame builds a random valid game with the heterogeneity shape of the
// Table-I setups.
func engineGame(tb testing.TB, seed uint64, n int) *Params {
	tb.Helper()
	r := stats.NewRNG(seed)
	a := make([]float64, n)
	var sum float64
	for i := range a {
		a[i] = 0.2 + r.Float64()
		sum += a[i]
	}
	for i := range a {
		a[i] /= sum
	}
	g, err := stats.UniformRange(r, n, 1, 25)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := stats.UniformRange(r, n, 5, 90)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := stats.UniformRange(r, n, 0, 8000)
	if err != nil {
		tb.Fatal(err)
	}
	return &Params{
		A: a, G: g, C: c, V: v,
		Alpha: 0.3 + 2*r.Float64(), R: 1000,
		B:    10 + 400*r.Float64(),
		QMax: 1, QMin: DefaultQMin,
	}
}

// crossingPairRef is the search crossingPair ran until it was replaced, kept
// verbatim as the oracle of the replacement's bit-identity tests
// (crossing_test.go): one-sided regula falsi on the floats' values, every
// step that fails to halve the bracket's lattice width forcing the next
// candidate onto the lattice midpoint.
func crossingPairRef(lo, hi, flo, fhi float64, f func(float64) float64) (float64, float64) {
	blo, bhi := math.Float64bits(lo), math.Float64bits(hi)
	forceLattice := false
	for bhi-blo > 1 {
		width := bhi - blo
		var mid float64
		ok := false
		if !forceLattice {
			t := flo / (flo - fhi)
			mid = lo + t*(hi-lo)
			ok = mid > lo && mid < hi // also rejects NaN and degenerate t
		}
		if !ok {
			mid = math.Float64frombits(blo + width/2)
		}
		if fm := f(mid); fm > 0 {
			lo, flo, blo = mid, fm, math.Float64bits(mid)
		} else {
			hi, fhi, bhi = mid, fm, math.Float64bits(mid)
		}
		forceLattice = bhi-blo > width/2
	}
	return math.Float64frombits(blo), math.Float64frombits(bhi)
}

func equalEquilibria(tb testing.TB, label string, a, b *Equilibrium) {
	tb.Helper()
	if a.Lambda != b.Lambda || a.Spent != b.Spent || a.ServerObj != b.ServerObj ||
		a.BudgetTight != b.BudgetTight {
		tb.Fatalf("%s: scalar drift: λ %v vs %v, spent %v vs %v, obj %v vs %v, tight %v vs %v",
			label, a.Lambda, b.Lambda, a.Spent, b.Spent, a.ServerObj, b.ServerObj,
			a.BudgetTight, b.BudgetTight)
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] || a.P[i] != b.P[i] {
			tb.Fatalf("%s: client %d drift: q %v vs %v, P %v vs %v",
				label, i, a.Q[i], b.Q[i], a.P[i], b.P[i])
		}
	}
}

// TestWarmSolverBitIdenticalToCold is the engine's central determinism
// gate: one Solver reused across a stream of unrelated games — its warm
// brackets carrying over from game to game — must produce bit-identical
// results to a cold SolveKKT per game.
func TestWarmSolverBitIdenticalToCold(t *testing.T) {
	s := NewSolver()
	for seed := uint64(1); seed <= 40; seed++ {
		p := engineGame(t, seed, 3+int(seed%20))
		warm, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		cold, err := p.SolveKKT()
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		equalEquilibria(t, "warm vs cold", warm, cold)
	}
}

// TestWarmSweepBitIdenticalToCold mirrors the sweep shape: a fine budget
// grid solved by one warm Solver must match fresh solves point for point,
// and the slack (λ=0) regime must round-trip through warm state too.
func TestWarmSweepBitIdenticalToCold(t *testing.T) {
	base := engineGame(t, 99, 12)
	s := NewSolver()
	for i := 0; i < 120; i++ {
		p := base.Clone()
		// Spans binding budgets through to fully slack ones.
		p.B = base.B * (0.05 + 40*float64(i)/119)
		warm, err := s.Solve(p)
		if err != nil {
			t.Fatalf("point %d: warm: %v", i, err)
		}
		cold, err := p.SolveKKT()
		if err != nil {
			t.Fatalf("point %d: cold: %v", i, err)
		}
		equalEquilibria(t, "sweep point", warm, cold)
	}
}

// TestSolveManyMatchesSequential pins SolveMany ≡ sequential SolveKKT
// bit-identically for any worker count.
func TestSolveManyMatchesSequential(t *testing.T) {
	games := make([]*Params, 23)
	for i := range games {
		games[i] = engineGame(t, uint64(300+i), 4+i%9)
	}
	want := make([]*Equilibrium, len(games))
	for i, g := range games {
		eq, err := g.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = eq
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := SolveMany(games, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			equalEquilibria(t, "solve-many", got[i], want[i])
		}
	}
}

// TestSolveManyErrors pins the deterministic lowest-index error contract.
func TestSolveManyErrors(t *testing.T) {
	if _, err := SolveMany(nil, 2); err == nil {
		t.Fatal("expected empty-batch error")
	}
	good := engineGame(t, 7, 5)
	bad := good.Clone()
	bad.Alpha = -1
	_, err := SolveMany([]*Params{good, bad, bad.Clone(), good}, 3)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("expected BatchError, got %v", err)
	}
	if be.Index != 1 {
		t.Fatalf("expected lowest failing index 1, got %d", be.Index)
	}
	if _, err := SolveMany([]*Params{good, nil}, 2); !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("expected nil-params BatchError at 1, got %v", err)
	}
}

// TestSolveKKTZeroAllocs is the solver-side allocation gate, mirroring PR
// 1's FL hot-path gates: with warm scratch and a reused output arena, a
// full equilibrium solve performs zero heap allocations.
func TestSolveKKTZeroAllocs(t *testing.T) {
	p := engineGame(t, 11, 64)
	s := NewSolver()
	var eq Equilibrium
	if err := s.SolveInto(p, &eq); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.SolveInto(p, &eq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolveInto allocates %v times per run", allocs)
	}
}

// TestColdSolveProbeBudget counts every spendOfLambda pass of a cold
// SolveInto — slack probe, both ends of the analytic bracket, the search,
// the final evaluation — over 200 seeded games per size of the quote-cold
// and Table-I families. The one-sided regula falsi from the [0, 1] cold
// bracket that this search replaced spent 50–58 passes on average on the
// same games and up to 83; a plain lattice bisection spends 64.
func TestColdSolveProbeBudget(t *testing.T) {
	const games, meanLimit, maxLimit = 200, 18.0, 40
	for _, n := range []int{40, 256, 4096} {
		for _, family := range []string{"quote-cold", "table-1"} {
			total, worst := 0, 0
			for seed := uint64(1); seed <= games; seed++ {
				p := engineGame(t, seed, n)
				if family == "quote-cold" {
					p = quoteColdGame(seed, n)
				}
				var s Solver
				var eq Equilibrium
				if err := s.SolveInto(p, &eq); err != nil {
					t.Fatalf("%s N=%d seed %d: %v", family, n, seed, err)
				}
				total += s.probes
				worst = max(worst, s.probes)
			}
			mean := float64(total) / games
			t.Logf("%s N=%d: mean %.1f passes, worst %d", family, n, mean, worst)
			if mean > meanLimit || worst > maxLimit {
				t.Errorf("%s N=%d: mean %.1f passes (limit %v), worst %d (limit %d)",
					family, n, mean, meanLimit, worst, maxLimit)
			}
		}
	}
}

// TestMSearchEngineMatchesCold pins the warm-started M-search: a Solver
// reused across games (ψ/θ/λ brackets all carried over) must reproduce the
// cold Params.SolveMSearch bit for bit.
func TestMSearchEngineMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("m-search sweep is slow")
	}
	s := NewSolver()
	opts := DefaultMSearchOptions()
	for seed := uint64(50); seed < 56; seed++ {
		p := engineGame(t, seed, 3+int(seed%5))
		warm, err := s.SolveMSearch(p, opts)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		cold, err := p.SolveMSearch(opts)
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		equalEquilibria(t, "m-search", warm, cold)
	}
}

// TestBayesianParallelMatchesSequential pins the parallel Monte-Carlo
// design: identical output for any worker count, scenario draws included.
func TestBayesianParallelMatchesSequential(t *testing.T) {
	p := engineGame(t, 21, 17)
	prior := Prior{MeanC: 50, MeanV: 4000}
	want, err := p.SolveBayesianParallel(prior, 150, stats.NewRNG(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := p.SolveBayesianParallel(prior, 150, stats.NewRNG(3), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.ExpectedSpend != want.ExpectedSpend || got.ExpectedObj != want.ExpectedObj ||
			got.Scenarios != want.Scenarios {
			t.Fatalf("workers=%d: scalar drift: spend %v vs %v, obj %v vs %v",
				workers, got.ExpectedSpend, want.ExpectedSpend, got.ExpectedObj, want.ExpectedObj)
		}
		for i := range want.P {
			if got.P[i] != want.P[i] || got.ExpectedQ[i] != want.ExpectedQ[i] {
				t.Fatalf("workers=%d: client %d drift: P %v vs %v, q %v vs %v",
					workers, i, got.P[i], want.P[i], got.ExpectedQ[i], want.ExpectedQ[i])
			}
		}
	}
}

// TestCacheHitEqualsFreshSolve pins the memo-cache contract: hits return
// values equal to fresh solves, and the hit counters move.
func TestCacheHitEqualsFreshSolve(t *testing.T) {
	c := NewCache(8)
	p := engineGame(t, 31, 9)
	first, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	equalEquilibria(t, "cache miss vs fresh", first, fresh)
	second, err := c.Solve(p.Clone()) // equal game, distinct backing arrays
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("expected the memoized equilibrium on the second solve")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("expected 1 hit / 1 miss, got %d / %d", hits, misses)
	}

	// A changed game is a different fingerprint, never a stale hit.
	bumped := p.Clone()
	bumped.B *= 1.5
	third, err := c.Solve(bumped)
	if err != nil {
		t.Fatal(err)
	}
	freshBumped, err := bumped.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	equalEquilibria(t, "bumped game", third, freshBumped)
}

// TestCachePriceSchemes pins Outcome memoization per scheme name.
func TestCachePriceSchemes(t *testing.T) {
	c := NewCache(8)
	p := engineGame(t, 37, 7)
	proposed, err := SchemeByName(SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := SchemeByName(SchemeNameUniform)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Price(proposed, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Price(uniform, p)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct schemes must not share a cache entry")
	}
	a2, err := c.Price(proposed, p)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("expected the memoized outcome for the repeated scheme")
	}
	direct, err := proposed.Price(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.P {
		if a.P[i] != direct.P[i] || a.Q[i] != direct.Q[i] {
			t.Fatalf("client %d: cached pricing drifted from direct pricing", i)
		}
	}
}

// TestCacheEviction pins the FIFO capacity bound.
func TestCacheEviction(t *testing.T) {
	c := NewCache(3)
	for i := 0; i < 6; i++ {
		p := engineGame(t, uint64(500+i), 4)
		if _, err := c.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("expected capacity 3, got %d", c.Len())
	}
}

// TestFingerprintDiscriminates spot-checks that every Params field feeds
// the fingerprint.
func TestFingerprintDiscriminates(t *testing.T) {
	p := engineGame(t, 41, 6)
	base := p.Fingerprint()
	if p.Clone().Fingerprint() != base {
		t.Fatal("clone fingerprint differs from original")
	}
	mutate := []func(*Params){
		func(q *Params) { q.A[2] += 1e-12 },
		func(q *Params) { q.G[0] *= 1.0000001 },
		func(q *Params) { q.C[1] += 1 },
		func(q *Params) { q.V[3] += 1 },
		func(q *Params) { q.Alpha *= 2 },
		func(q *Params) { q.Beta += 1 },
		func(q *Params) { q.R += 1 },
		func(q *Params) { q.B += 1 },
		func(q *Params) { q.QMax -= 0.01 },
		func(q *Params) { q.QMin *= 2 },
	}
	for i, m := range mutate {
		q := p.Clone()
		m(q)
		if q.Fingerprint() == base {
			t.Fatalf("mutation %d left the fingerprint unchanged", i)
		}
		if q.Equal(p) {
			t.Fatalf("mutation %d left Equal true", i)
		}
	}
}

// TestPositiveRootMatchesFirstOrderCondition certifies the Newton best
// response against its defining equation across regimes, including
// negative prices (clients paying the server) and ceiling saturation.
func TestPositiveRootMatchesFirstOrderCondition(t *testing.T) {
	r := stats.NewRNG(61)
	for trial := 0; trial < 2000; trial++ {
		price := -200 + 400*r.Float64()
		k := math.Exp(-8 + 12*r.Float64())
		twoC := math.Exp(-2 + 8*r.Float64())
		qMax := 0.3 + 0.7*r.Float64()
		q := positiveRoot(price, k, twoC, qMax)
		if q <= 0 || q > qMax || math.IsNaN(q) {
			t.Fatalf("trial %d: root %v outside (0, %v]", trial, q, qMax)
		}
		g := price + k/(q*q) - twoC*q
		if q == qMax {
			if g < -1e-9*(math.Abs(price)+twoC) {
				t.Fatalf("trial %d: saturated root with negative margin %v", trial, g)
			}
			continue
		}
		// Interior root: the FOC must hold to near machine precision,
		// measured against the equation's own scale.
		scale := math.Abs(price) + k/(q*q) + twoC*q
		if math.Abs(g) > 1e-9*scale {
			t.Fatalf("trial %d: |g(q)| = %v vs scale %v (price=%v k=%v twoC=%v)",
				trial, math.Abs(g), scale, price, k, twoC)
		}
	}
}

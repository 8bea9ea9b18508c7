package game

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"unbiasedfl/internal/stats"
)

// This file holds the solver's kernel micro-benchmarks: run
//
//	go test -run '^$' -bench 'SolveKKT|WarmSweep|BayesianParallel|Sensitivity|MSearch|TotalClientUtility' ./internal/game/
//
// on both commits before landing solver changes. End to end the solver is
// timed by benchmark/ (game.solve_kkt_s, game.solve_warm_s, quote-cold); CI's
// bench smoke runs this set at -benchtime 1x.

// benchGame builds a synthetic fleet-scale game with the heterogeneity
// shape of the Table-I setups.
func benchGame(tb testing.TB, n int) *Params {
	tb.Helper()
	r := stats.NewRNG(uint64(n) ^ 0xBEEF)
	a := make([]float64, n)
	var sum float64
	for i := range a {
		a[i] = 0.5 + r.Float64()
		sum += a[i]
	}
	for i := range a {
		a[i] /= sum
	}
	g, err := stats.UniformRange(r, n, 1, 20)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := stats.UniformRange(r, n, 10, 100)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := stats.UniformRange(r, n, 0, 8000)
	if err != nil {
		tb.Fatal(err)
	}
	return &Params{
		A: a, G: g, C: c, V: v,
		Alpha: 1, R: 1000, B: 10 * float64(n) / 40, QMax: 1, QMin: DefaultQMin,
	}
}

// BenchmarkSolveKKT measures a steady-state equilibrium solve across fleet
// sizes through a warm Solver arena (0 allocs/op).
func BenchmarkSolveKKT(b *testing.B) {
	for _, n := range []int{256, 1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p := benchGame(b, n)
			s := NewSolver()
			var eq Equilibrium
			if err := s.SolveInto(p, &eq); err != nil {
				b.Fatal(err)
			}
			s.warmLambda = lambdaBracket{} // keep the search cold; only arenas warm
			b.ReportAllocs()
			b.ResetTimer()
			s.probes = 0
			for i := 0; i < b.N; i++ {
				s.warmLambda = lambdaBracket{}
				if err := s.SolveInto(p, &eq); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.probes)/float64(b.N), "probes/op")
		})
	}
}

// benchSweepGames builds 64 nearby games (the shape of EquilibriumSweep
// points and sensitivity probes).
func benchSweepGames(b *testing.B, n, points int) []*Params {
	b.Helper()
	base := benchGame(b, n)
	games := make([]*Params, points)
	for i := range games {
		g := base.Clone()
		g.B = base.B * (0.8 + 0.4*float64(i)/float64(points-1))
		games[i] = g
	}
	return games
}

// BenchmarkFingerprint times the cache key at a quote's size and at fleet
// sizes.
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{256, 100000, 1000000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p := benchGame(b, n)
			var fp uint64
			for i := 0; i < b.N; i++ {
				fp ^= p.Fingerprint()
			}
			_ = fp
		})
	}
}

// BenchmarkWarmSweep measures a fine-grained budget sweep: cold solves per
// point, one warm-started Solver, and the SolveMany worker pool.
func BenchmarkWarmSweep(b *testing.B) {
	games := benchSweepGames(b, 2000, 64)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range games {
				if _, err := g.SolveKKT(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := NewSolver()
		var eq Equilibrium
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range games {
				if err := s.SolveInto(g, &eq); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("many", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SolveMany(context.Background(), games, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBayesianParallel measures the Bayesian Monte-Carlo pricing
// design sequentially and across the worker pool.
func BenchmarkBayesianParallel(b *testing.B) {
	p := benchGame(b, 24)
	prior := Prior{MeanC: 55, MeanV: 4000}
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.solveBayesian(prior, 200, stats.NewRNG(11), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.solveBayesian(prior, 200, stats.NewRNG(11), runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSensitivity measures the comparative-statics probe batch
// (2 + 4N solves through SolveMany).
func BenchmarkSensitivity(b *testing.B) {
	p := benchGame(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AnalyzeSensitivity(SensitivityOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSearch measures the paper's M-parameterized cross-check solver
// (scratch arenas + warm ψ/θ brackets across grid steps).
func BenchmarkMSearch(b *testing.B) {
	p := benchGame(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveMSearch(DefaultMSearchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures a memoized re-solve against the full engine
// solve it replaces.
func BenchmarkCacheHit(b *testing.B) {
	p := benchGame(b, 10000)
	c := NewCache(0)
	if _, err := c.Solve(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTotalClientUtility sums the priced fleet's utilities at the size
// the fleet workloads run: one pass over the clients, where evaluating the
// bound per client took N of them.
func BenchmarkTotalClientUtility(b *testing.B) {
	p := benchGame(b, 100000)
	var eq Equilibrium
	if err := NewSolver().SolveInto(p, &eq); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.TotalClientUtility(eq.P, eq.Q, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.N()), "ns/client")
}

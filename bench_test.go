// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), plus ablations of the design choices called out in
// DESIGN.md. Each benchmark reports the headline metric of its artifact via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction run; README.md maps the paper's artifacts to this harness.
//
// Benchmarks run at laptop scale (see benchOptions); pass the paper's scale
// through cmd/flbench -paper for the full-size reproduction.
package unbiasedfl_test

import (
	"context"
	"testing"

	"unbiasedfl"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
)

// benchOptions keeps each artifact's regeneration in the seconds range.
func benchOptions() unbiasedfl.Options {
	return unbiasedfl.Options{
		NumClients:   8,
		TotalSamples: 1600,
		Rounds:       60,
		LocalSteps:   8,
		BatchSize:    16,
		EvalEvery:    5,
		Calibration:  2,
		Seed:         1,
		Runs:         1,
	}
}

func buildEnv(b *testing.B, id unbiasedfl.SetupID) *unbiasedfl.Environment {
	b.Helper()
	env, err := unbiasedfl.NewSetup(context.Background(), id, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchFig4 regenerates one setup's Fig. 4 panel: all three pricing schemes
// trained under the same budget. Reports the proposed scheme's final loss.
func benchFig4(b *testing.B, id unbiasedfl.SetupID) {
	env := buildEnv(b, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := unbiasedfl.CompareSchemes(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Schemes[0].FinalLoss, "proposed-final-loss")
		b.ReportMetric(cmp.Schemes[0].FinalAccuracy, "proposed-final-acc")
	}
}

func BenchmarkFig4Setup1(b *testing.B) { benchFig4(b, unbiasedfl.Setup1) }
func BenchmarkFig4Setup2(b *testing.B) { benchFig4(b, unbiasedfl.Setup2) }
func BenchmarkFig4Setup3(b *testing.B) { benchFig4(b, unbiasedfl.Setup3) }

// BenchmarkTable2 regenerates the time-to-target-loss rows. Reports the
// proposed scheme's saving over uniform pricing as a percentage (the paper
// reports 21–53% at its scale).
func BenchmarkTable2(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := unbiasedfl.CompareSchemes(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		rows := cmp.TimesToLoss(cmp.AdaptiveLossTarget())
		if rows[0].OK && rows[2].OK && rows[2].Elapsed > 0 {
			saving := 1 - rows[0].Elapsed.Seconds()/rows[2].Elapsed.Seconds()
			b.ReportMetric(saving*100, "saving-vs-uniform-%")
		}
	}
}

// BenchmarkTable3 regenerates the time-to-target-accuracy rows (the paper's
// headline: 69% less time than uniform pricing on MNIST). At laptop scale
// the MNIST-like task saturates too quickly to separate schemes, so the
// bench uses the harder EMNIST-like setup; see README.md.
func BenchmarkTable3(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := unbiasedfl.CompareSchemes(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		rows := cmp.TimesToAccuracy(cmp.AdaptiveAccuracyTarget())
		if rows[0].OK && rows[2].OK && rows[2].Elapsed > 0 {
			saving := 1 - rows[0].Elapsed.Seconds()/rows[2].Elapsed.Seconds()
			b.ReportMetric(saving*100, "saving-vs-uniform-%")
		}
	}
}

// BenchmarkTable4 regenerates the total client-utility gains.
func BenchmarkTable4(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := unbiasedfl.CompareSchemes(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		overU, overW, err := cmp.UtilityGains()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(overU, "gain-over-uniform")
		b.ReportMetric(overW, "gain-over-weighted")
	}
}

// BenchmarkTable5 regenerates the negative-payment counts vs mean intrinsic
// value on Setup 1.
func BenchmarkTable5(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := unbiasedfl.EquilibriumSweep(context.Background(), env, unbiasedfl.SweepV,
			[]float64{0, 4000, 80000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].NegativePayments), "neg-payments-v0")
		b.ReportMetric(float64(points[1].NegativePayments), "neg-payments-v4000")
		b.ReportMetric(float64(points[2].NegativePayments), "neg-payments-v80000")
	}
}

// BenchmarkFig5 regenerates the intrinsic-value impact study (Setup 1).
func BenchmarkFig5(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := unbiasedfl.RunSweep(context.Background(), env, unbiasedfl.SweepV,
			[]float64{1000, 4000, 16000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].FinalLoss, "loss-low-v")
		b.ReportMetric(points[len(points)-1].FinalLoss, "loss-high-v")
	}
}

// BenchmarkFig6 regenerates the local-cost impact study (Setup 2).
func BenchmarkFig6(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := unbiasedfl.RunSweep(context.Background(), env, unbiasedfl.SweepC,
			[]float64{10, 20, 60})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].FinalLoss, "loss-low-c")
		b.ReportMetric(points[len(points)-1].FinalLoss, "loss-high-c")
	}
}

// BenchmarkFig7 regenerates the budget impact study (Setup 3).
func BenchmarkFig7(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := unbiasedfl.RunSweep(context.Background(), env, unbiasedfl.SweepB,
			[]float64{125, 500, 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].FinalLoss, "loss-low-B")
		b.ReportMetric(points[len(points)-1].FinalLoss, "loss-high-B")
	}
}

// ablationLoss trains the training-side ablations' shared configuration (50
// rounds, one final evaluation) on the pooled local backend and returns the
// final global loss.
func ablationLoss(
	b *testing.B, env *unbiasedfl.Environment, sampler engine.Sampler, agg engine.Aggregator, seed uint64,
) float64 {
	b.Helper()
	res, err := engine.Run(context.Background(), engine.Spec{
		Model:      env.Model,
		Fed:        env.Fed,
		Rounds:     50,
		LocalSteps: 8,
		BatchSize:  16,
		Schedule:   fl.ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  50,
		Seed:       seed,
		Sampler:    sampler,
		Aggregator: agg,
	}, engine.NewLocalBackend(engine.LocalOptions{Parallel: true}))
	if err != nil {
		b.Fatal(err)
	}
	return res.FinalLoss
}

// BenchmarkAblationAggregation compares Lemma 1's unbiased aggregation with
// the biased proportional rule and the naive inverse-weighting the paper
// warns about, under the same skewed participation levels.
func BenchmarkAblationAggregation(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup2)
	q := make([]float64, env.Fed.NumClients())
	for i := range q {
		q[i] = 0.1
		if i%3 == 0 {
			q[i] = 0.9
		}
	}
	aggs := map[string]engine.Aggregator{
		"unbiased-lemma1":     engine.UnbiasedAggregator{},
		"biased-proportional": engine.ProportionalAggregator{},
		"naive-inverse":       engine.NaiveInverseAggregator{},
	}
	for name, agg := range aggs {
		agg := agg
		b.Run(name, func(b *testing.B) {
			var lossSum float64
			for i := 0; i < b.N; i++ {
				// Fixed seeds: the reported metric is an average over
				// iterations of a deterministic configuration, not the last
				// draw of a varying one.
				sampler, err := fl.NewBernoulliSampler(q, stats.NewRNG(5))
				if err != nil {
					b.Fatal(err)
				}
				lossSum += ablationLoss(b, env, sampler, agg, 99)
			}
			b.ReportMetric(lossSum/float64(b.N), "final-loss")
		})
	}
}

// BenchmarkAblationQuantityPricing contrasts the paper's G_n-aware optimal
// pricing with pricing computed as if every client had identical gradient
// heterogeneity (pure data-quantity pricing). The bound attained by the
// quantity-blind levels is evaluated under the true G_n.
func BenchmarkAblationQuantityPricing(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	blind := env.Params.Clone()
	var meanG float64
	for _, g := range env.Params.G {
		meanG += g / float64(len(env.Params.G))
	}
	for i := range blind.G {
		blind.G[i] = meanG
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aware, err := env.Params.SolveKKT()
		if err != nil {
			b.Fatal(err)
		}
		blindEq, err := blind.SolveKKT()
		if err != nil {
			b.Fatal(err)
		}
		// The server posts the blind prices, but clients best-respond with
		// their true G_n; the attained bound and spend are evaluated under
		// the true parameters.
		trueQ, err := env.Params.BestResponseAll(blindEq.P)
		if err != nil {
			b.Fatal(err)
		}
		for j, q := range trueQ {
			if q < env.Params.QMin {
				trueQ[j] = env.Params.QMin
			}
		}
		blindObj, err := env.Params.ServerObjective(trueQ)
		if err != nil {
			b.Fatal(err)
		}
		blindSpend, err := game.TotalPayment(blindEq.P, trueQ)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aware.ServerObj, "bound-Gn-aware")
		b.ReportMetric(blindObj, "bound-quantity-only")
		b.ReportMetric(blindSpend-aware.Spent, "overspend-vs-aware")
	}
}

// BenchmarkAblationFixedSubset contrasts the paper's randomized full-fleet
// participation with the deterministic fixed-subset mechanisms of prior
// work: training only the top-K largest clients forever yields a biased
// model whose pooled loss stalls above the unbiased one.
func BenchmarkAblationFixedSubset(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup2)
	n := env.Fed.NumClients()
	// Top half of clients by data size.
	subset := make([]int, 0, n/2)
	for i := 0; i < n; i++ {
		if env.Fed.Weights[i] >= medianWeight(env.Fed.Weights) {
			subset = append(subset, i)
		}
	}
	b.Run("fixed-subset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sampler, err := fl.NewFixedSubsetSampler(subset, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ablationLoss(b, env, sampler, engine.ProportionalAggregator{}, uint64(i)+3), "final-loss")
		}
	})
	b.Run("randomized-unbiased", func(b *testing.B) {
		q := make([]float64, n)
		for i := range q {
			q[i] = float64(len(subset)) / float64(n) // same expected load
		}
		for i := 0; i < b.N; i++ {
			sampler, err := fl.NewBernoulliSampler(q, stats.NewRNG(uint64(i)+17))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ablationLoss(b, env, sampler, engine.UnbiasedAggregator{}, uint64(i)+4), "final-loss")
		}
	})
}

// BenchmarkAblationSolvers compares the exact KKT bisection against the
// paper's M-parameterized line-search method on the same game.
func BenchmarkAblationSolvers(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	b.Run("kkt-bisection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eq, err := env.Params.SolveKKT()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(eq.ServerObj, "bound")
		}
	})
	b.Run("m-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eq, err := env.Params.SolveMSearch(game.DefaultMSearchOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(eq.ServerObj, "bound")
		}
	})
}

// BenchmarkExtensionBayesian measures the future-work Bayesian mechanism:
// the realized bound of posted prices designed from the prior alone,
// against the complete-information equilibrium (the price of incomplete
// information).
func BenchmarkExtensionBayesian(b *testing.B) {
	env := buildEnv(b, unbiasedfl.Setup1)
	prior := game.Prior{MeanC: env.MeanC, MeanV: env.MeanV}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		complete, err := env.Params.SolveKKT()
		if err != nil {
			b.Fatal(err)
		}
		bayes, err := env.Params.SolveBayesian(prior, 400, stats.NewRNG(uint64(i)+11))
		if err != nil {
			b.Fatal(err)
		}
		_, _, obj, err := env.Params.EvaluateRealized(bayes.P)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(complete.ServerObj, "bound-complete-info")
		b.ReportMetric(obj, "bound-bayesian")
	}
}

// BenchmarkBoundFidelity measures how faithfully the Theorem-1 surrogate
// ranks real training outcomes (Kendall tau over random q profiles).
func BenchmarkBoundFidelity(b *testing.B) {
	opts := benchOptions()
	opts.Rounds = 30
	env, err := unbiasedfl.NewSetup(context.Background(), unbiasedfl.Setup2, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tauSum float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.BoundFidelity(context.Background(), env, 6, 123)
		if err != nil {
			b.Fatal(err)
		}
		tauSum += res.KendallTau
	}
	b.ReportMetric(tauSum/float64(b.N), "kendall-tau")
}

// BenchmarkConvergenceRate measures the empirical Theorem-1 decay: the
// fitted exponent of gap ≈ C·R^p should be negative (≈ −1 in the
// variance-dominated regime).
func BenchmarkConvergenceRate(b *testing.B) {
	opts := benchOptions()
	opts.Rounds = 40
	env, err := unbiasedfl.NewSetup(context.Background(), unbiasedfl.Setup2, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiment.ConvergenceRate(context.Background(), env, []int{10, 40, 160}, uint64(i)+5)
		if err != nil {
			b.Fatal(err)
		}
		p, err := experiment.FitRateExponent(points)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p, "rate-exponent")
	}
}

// BenchmarkExtensionAdaptiveRepricing measures static vs per-epoch adaptive
// pricing as the G_n estimates drift during training (DESIGN.md X10). The
// static arm's realized spend drifts off budget; the adaptive arm's stays on
// it by construction.
func BenchmarkExtensionAdaptiveRepricing(b *testing.B) {
	opts := benchOptions()
	opts.Rounds = 40
	env, err := unbiasedfl.NewSetup(context.Background(), unbiasedfl.Setup2, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAdaptive(context.Background(), env, 4, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StaticSpend, "static-drifted-spend")
		b.ReportMetric(res.AdaptiveSpend, "adaptive-spend")
		b.ReportMetric(res.AdaptiveLoss, "adaptive-final-loss")
	}
}

func medianWeight(w []float64) float64 {
	m, err := stats.Quantile(w, 0.5)
	if err != nil {
		return 0
	}
	return m
}

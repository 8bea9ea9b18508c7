package fl

import (
	"math"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// TestLemma2VarianceFormula validates the variance analysis behind Lemma 2.
// For independent Bernoulli participation and fixed deltas, the variance of
// the unbiased aggregate has the exact closed form
//
//	Var[w̄] = Σ_n a_n² ‖Δ_n‖² (1−q_n)/q_n,
//
// which is what Lemma 2 upper-bounds via ‖Δ_n‖ ≤ η E G_n. The test checks
// the Monte-Carlo variance against the closed form, and the closed form
// against the Lemma-2 bound computed with the trajectory's gradient norms.
func TestLemma2VarianceFormula(t *testing.T) {
	rng := stats.NewRNG(71)
	weights := []float64{0.4, 0.35, 0.25}
	q := []float64{0.8, 0.5, 0.25}
	const dim = 4
	deltas := make([]tensor.Vec, len(weights))
	for n := range deltas {
		d := make(tensor.Vec, dim)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		deltas[n] = d
	}

	// Full-participation mean.
	mean := tensor.NewVec(dim)
	for n := range deltas {
		if err := mean.AddScaled(weights[n], deltas[n]); err != nil {
			t.Fatal(err)
		}
	}

	// Closed-form variance.
	var analytic float64
	for n := range deltas {
		analytic += weights[n] * weights[n] * deltas[n].SqNorm() * (1 - q[n]) / q[n]
	}

	// Monte-Carlo variance of the unbiased aggregate around the mean.
	const trials = 300000
	var mc float64
	agg := engine.UnbiasedAggregator{}
	for trial := 0; trial < trials; trial++ {
		global := tensor.NewVec(dim)
		var updates []engine.ClientUpdate
		for n := range deltas {
			if rng.Bernoulli(q[n]) {
				updates = append(updates, engine.ClientUpdate{Client: n, Delta: deltas[n]})
			}
		}
		if err := agg.Aggregate(global, updates, weights, q); err != nil {
			t.Fatal(err)
		}
		diff, err := tensor.Sub(global, mean)
		if err != nil {
			t.Fatal(err)
		}
		mc += diff.SqNorm() / trials
	}
	if math.Abs(mc-analytic) > 0.02*analytic {
		t.Fatalf("Monte-Carlo variance %v vs closed form %v", mc, analytic)
	}

	// Lemma 2's bound with G_n := ‖Δ_n‖/(ηE) dominates the closed form
	// (here with equality up to the factor 4 in the lemma).
	const etaE = 1.0
	var lemma2 float64
	for n := range deltas {
		gn2 := deltas[n].SqNorm() / (etaE * etaE)
		lemma2 += 4 * (1 - q[n]) * weights[n] * weights[n] * gn2 / q[n] * etaE * etaE
	}
	if analytic > lemma2 {
		t.Fatalf("closed form %v exceeds Lemma-2 bound %v", analytic, lemma2)
	}
}

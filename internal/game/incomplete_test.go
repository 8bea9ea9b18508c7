package game

import (
	"math"
	"testing"

	"unbiasedfl/internal/stats"
)

func TestPriorValidate(t *testing.T) {
	if err := (Prior{MeanC: 50, MeanV: 4000}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Prior{MeanC: 0, MeanV: 1}).Validate(); err == nil {
		t.Fatal("expected error for zero mean cost")
	}
	if err := (Prior{MeanC: 1, MeanV: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative mean value")
	}
}

func TestSolveBayesianBudgetAndShape(t *testing.T) {
	p := testParams(t, 41, 20, 50, 4000, 200)
	prior := Prior{MeanC: 50, MeanV: 4000}
	out, err := p.SolveBayesian(prior, 400, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if out.ExpectedSpend > p.B*(1+1e-6) {
		t.Fatalf("expected spend %v exceeds budget %v", out.ExpectedSpend, p.B)
	}
	if len(out.P) != p.N() || len(out.ExpectedQ) != p.N() {
		t.Fatal("output length mismatch")
	}
	for n, q := range out.ExpectedQ {
		if q < p.QMin || q > p.QMax {
			t.Fatalf("expected q[%d]=%v outside box", n, q)
		}
	}
	if out.ExpectedObj <= 0 || math.IsNaN(out.ExpectedObj) {
		t.Fatalf("expected objective %v", out.ExpectedObj)
	}
	// Prices are customized (all heterogeneity in the certainty-equivalent
	// design comes from a_n G_n), not a flat posted price.
	allEqual := true
	for n := 1; n < p.N(); n++ {
		if math.Abs(out.P[n]-out.P[0]) > 1e-9 {
			allEqual = false
			break
		}
	}
	if allEqual {
		t.Fatal("bayesian design degenerated to a uniform price")
	}
	for n, price := range out.P {
		if math.IsNaN(price) || math.IsInf(price, 0) {
			t.Fatalf("price[%d] = %v", n, price)
		}
	}
}

func TestBayesianCostOfIncompleteInformation(t *testing.T) {
	// Complete information weakly dominates Bayesian posted prices on the
	// realized bound (the server can only lose by not knowing c, v).
	p := testParams(t, 43, 25, 50, 4000, 200)
	complete, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.SolveBayesian(Prior{MeanC: 50, MeanV: 4000}, 400, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	_, _, realizedObj, err := p.EvaluateRealized(out.P)
	if err != nil {
		t.Fatal(err)
	}
	if realizedObj < complete.ServerObj*(1-1e-9) {
		t.Fatalf("bayesian beat complete information: %v < %v",
			realizedObj, complete.ServerObj)
	}
	// But it should not be catastrophically worse than uniform posted
	// pricing, which uses even less structure.
	uni := priceBy(t, p, SchemeNameUniform)
	if realizedObj > 20*uni.ServerObj {
		t.Fatalf("bayesian %v collapsed versus uniform %v", realizedObj, uni.ServerObj)
	}
}

func TestSolveBayesianValidation(t *testing.T) {
	p := testParams(t, 44, 5, 50, 4000, 200)
	if _, err := p.SolveBayesian(Prior{MeanC: 0, MeanV: 1}, 10, stats.NewRNG(1)); err == nil {
		t.Fatal("expected prior error")
	}
	if _, err := p.SolveBayesian(Prior{MeanC: 1, MeanV: 1}, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("expected scenarios error")
	}
	if _, err := p.SolveBayesian(Prior{MeanC: 1, MeanV: 1}, 10, nil); err == nil {
		t.Fatal("expected rng error")
	}
}

func TestEvaluateRealizedErrors(t *testing.T) {
	p := testParams(t, 45, 4, 50, 4000, 200)
	if _, _, _, err := p.EvaluateRealized([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
	prices := make([]float64, p.N())
	for i := range prices {
		prices[i] = 10
	}
	q, spend, obj, err := p.EvaluateRealized(prices)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != p.N() || math.IsNaN(spend) || obj <= 0 {
		t.Fatalf("realized evaluation degenerate: %v %v %v", q, spend, obj)
	}
}

func TestBestResponseScenarioMatchesStored(t *testing.T) {
	p := testParams(t, 46, 6, 50, 4000, 200)
	for n := 0; n < p.N(); n++ {
		for _, price := range []float64{-5, 0, 25, 200} {
			want, err := p.BestResponse(n, price)
			if err != nil {
				t.Fatal(err)
			}
			got := p.bestResponseScenario(n, price, p.C[n], p.V[n])
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("client %d price %v: scenario %v vs stored %v", n, price, got, want)
			}
		}
	}
}

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

func TestDecoupledCost(t *testing.T) {
	comp := CostComponents{ComputeSecPrice: 2, CommSecPrice: 10, Opportunity: 1}
	c, err := DecoupledCost(comp, DeviceProfile{ComputeSecPerRound: 3, CommSecPerRound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-(2*3+10*0.5+1)) > 1e-12 {
		t.Fatalf("decoupled cost %v", c)
	}
	if _, err := DecoupledCost(CostComponents{ComputeSecPrice: -1}, DeviceProfile{}); err == nil {
		t.Fatal("expected negative component error")
	}
	if _, err := DecoupledCost(comp, DeviceProfile{ComputeSecPerRound: -1}); err == nil {
		t.Fatal("expected negative profile error")
	}
	if _, err := DecoupledCost(CostComponents{}, DeviceProfile{}); err == nil {
		t.Fatal("expected zero-cost error")
	}
}

func TestWithDecoupledCosts(t *testing.T) {
	p := testParams(t, 47, 4, 50, 4000, 200)
	profiles := []DeviceProfile{
		{ComputeSecPerRound: 1, CommSecPerRound: 0.3},
		{ComputeSecPerRound: 2, CommSecPerRound: 0.3},
		{ComputeSecPerRound: 4, CommSecPerRound: 0.3},
		{ComputeSecPerRound: 8, CommSecPerRound: 0.3},
	}
	comp := CostComponents{ComputeSecPrice: 10, CommSecPrice: 20, Opportunity: 0.5}
	pd, err := p.WithDecoupledCosts(comp, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pd.C); i++ {
		if pd.C[i] <= pd.C[i-1] {
			t.Fatal("slower device should cost more")
		}
	}
	// Original untouched.
	if p.C[0] == pd.C[0] && p.C[1] == pd.C[1] && p.C[2] == pd.C[2] {
		t.Fatal("suspicious: original costs identical to derived ones")
	}
	// The re-priced game still solves, and the slowest (most expensive)
	// device participates no more than the cheapest, all else equal.
	eq, err := pd.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if err := pd.CheckConsistency(eq, 1e-6); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WithDecoupledCosts(comp, profiles[:2]); err == nil {
		t.Fatal("expected profile-count error")
	}
	if _, err := DecoupledCosts(comp, nil); err == nil {
		t.Fatal("expected empty fleet error")
	}
}

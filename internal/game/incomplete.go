package game

import (
	"context"
	"errors"
	"fmt"

	"unbiasedfl/internal/stats"
)

// This file implements the paper's first future-work item: "we will extend
// our incentive mechanism for incomplete information scenarios using
// Bayesian method". The server no longer observes each client's private
// cost c_n and intrinsic value v_n — only their prior distributions (the
// exponential families of Table I) plus the public data parameters a_n, G_n
// estimated from gradients. Pricing proceeds in two steps:
//
//  1. Certainty-equivalent design: solve the complete-information KKT
//     system with every private parameter replaced by its prior mean. This
//     yields the *shape* of the price vector (who gets paid more).
//  2. Monte-Carlo budget calibration: scale the whole price vector so the
//     *expected* spend over the prior meets the budget, since realized best
//     responses differ from the certainty-equivalent ones.

// Prior describes the server's belief over clients' private parameters:
// independent exponentials, matching the experimental setups.
type Prior struct {
	MeanC float64 // mean of the local-cost parameter c_n
	MeanV float64 // mean of the intrinsic-value preference v_n
}

// Validate checks the prior.
func (pr Prior) Validate() error {
	if pr.MeanC <= 0 {
		return errors.New("game: prior mean cost must be positive")
	}
	if pr.MeanV < 0 {
		return errors.New("game: prior mean value must be nonnegative")
	}
	return nil
}

// BayesianOutcome is a posted-price design under incomplete information,
// with Monte-Carlo estimates of its expected performance.
type BayesianOutcome struct {
	P []float64 // posted prices
	// ExpectedQ is the prior-mean best response per client.
	ExpectedQ []float64
	// ExpectedSpend is the prior-mean total payment (calibrated to <= B).
	ExpectedSpend float64
	// ExpectedObj is the server bound evaluated at ExpectedQ.
	ExpectedObj float64
	// Scenarios is the number of Monte-Carlo draws used.
	Scenarios int
}

// bestResponseScenario solves eq. 13 for arbitrary (c, v) instead of the
// stored parameters: the unique root of price + vαD/(R q²) − 2cq on
// (0, QMax], clamped to the box. It shares BestResponse's Newton solver.
func (p *Params) bestResponseScenario(n int, price, c, v float64) float64 {
	k := v * p.Alpha / p.R * p.DataQuality(n)
	if k == 0 {
		return clamp(price/(2*c), 0, p.QMax)
	}
	return positiveRoot(price, k, 2*c, p.QMax)
}

// expectedResponse estimates E[q_n(P_n)] and E[P_n q_n(P_n)] over the prior
// using common random numbers (the scenario draws are fixed per call).
func (p *Params) expectedResponse(n int, price float64, cs, vs []float64) (meanQ, meanPay float64) {
	k := float64(len(cs))
	for i := range cs {
		q := p.bestResponseScenario(n, price, cs[i], vs[i])
		meanQ += q / k
		meanPay += price * q / k
	}
	return meanQ, meanPay
}

// SolveBayesian designs posted prices knowing only the prior over (c, v).
// scenarios controls the Monte-Carlo resolution; rng provides the scenario
// draws (common across the calibration search for stability). The
// Monte-Carlo expectations are evaluated across GOMAXPROCS workers; see
// solveBayesian for the determinism guarantee.
func (p *Params) SolveBayesian(prior Prior, scenarios int, rng *stats.RNG) (*BayesianOutcome, error) {
	return p.solveBayesian(prior, scenarios, rng, 0)
}

// solveBayesian is SolveBayesian with an explicit worker count (<= 0 means
// GOMAXPROCS). The output is bit-identical for any worker count: all
// scenario draws are generated up front from rng in client order (common
// random numbers), each worker evaluates whole per-client expectations into
// index-addressed slots, and every reduction sums in client order.
func (p *Params) solveBayesian(prior Prior, scenarios int, rng *stats.RNG, workers int) (*BayesianOutcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := prior.Validate(); err != nil {
		return nil, err
	}
	if scenarios <= 0 {
		return nil, errors.New("game: need at least one scenario")
	}
	if rng == nil {
		return nil, errors.New("game: nil rng")
	}

	// Step 1: certainty-equivalent prices from the prior means.
	ce := p.Clone()
	for n := range ce.C {
		ce.C[n] = prior.MeanC
		ce.V[n] = prior.MeanV
	}
	ceEq, err := ce.SolveKKT()
	if err != nil {
		return nil, fmt.Errorf("certainty-equivalent design: %w", err)
	}

	// Shared scenario draws per client (common random numbers): generated
	// sequentially up front so the draw order never depends on scheduling.
	n := p.N()
	cs := make([][]float64, n)
	vs := make([][]float64, n)
	for i := 0; i < n; i++ {
		ci, err := stats.Exponential(rng, scenarios, prior.MeanC)
		if err != nil {
			return nil, err
		}
		for j := range ci {
			ci[j] += prior.MeanC * 0.05 // strictly positive costs
		}
		vi, err := stats.Exponential(rng, scenarios, prior.MeanV)
		if err != nil {
			return nil, err
		}
		cs[i], vs[i] = ci, vi
	}

	// Per-client expectation slots: each worker owns whole clients, so the
	// scenario loop inside expectedResponse keeps its sequential summation
	// order and the cross-client reduction below is in index order.
	qMeans := make([]float64, n)
	pays := make([]float64, n)
	evalAll := func(scale float64) {
		// Nothing fails and the context never ends, so there is no error.
		_ = stats.ParallelFor(context.Background(), n, workers, func(_ context.Context, _ *struct{}, i int) error {
			qMeans[i], pays[i] = p.expectedResponse(i, scale*ceEq.P[i], cs[i], vs[i])
			return nil
		})
	}
	expSpend := func(scale float64) float64 {
		evalAll(scale)
		var total float64
		for i := 0; i < n; i++ {
			total += pays[i]
		}
		return total
	}

	// Step 2: calibrate the scale so expected spend meets the budget.
	// Expected spend is nondecreasing in the scale (each client's expected
	// payment is nondecreasing in its own price), so bisection applies. The
	// bisections stop at floating-point resolution instead of burning their
	// full iteration budget: once mid collides with an endpoint the bracket
	// can never move again.
	scale := 1.0
	if expSpend(1) > p.B {
		lo, hi := 0.0, 1.0
		for i := 0; i < 100; i++ {
			mid := 0.5 * (lo + hi)
			if mid == lo || mid == hi {
				break
			}
			if expSpend(mid) > p.B {
				hi = mid
			} else {
				lo = mid
			}
		}
		scale = lo
	} else {
		// Budget slack at the certainty-equivalent prices: grow until the
		// budget binds or responses saturate.
		hi := 1.0
		for i := 0; i < 60 && expSpend(hi*2) <= p.B; i++ {
			hi *= 2
		}
		lo := hi
		hi *= 2
		if expSpend(hi) > p.B {
			for i := 0; i < 100; i++ {
				mid := 0.5 * (lo + hi)
				if mid == lo || mid == hi {
					break
				}
				if expSpend(mid) > p.B {
					hi = mid
				} else {
					lo = mid
				}
			}
		}
		scale = lo
	}

	out := &BayesianOutcome{
		P:         make([]float64, n),
		ExpectedQ: make([]float64, n),
		Scenarios: scenarios,
	}
	evalAll(scale)
	for i := 0; i < n; i++ {
		out.P[i] = scale * ceEq.P[i]
		q := qMeans[i]
		if q < p.QMin {
			q = p.QMin
		}
		out.ExpectedQ[i] = q
		out.ExpectedSpend += pays[i]
	}
	obj, err := p.ServerObjective(out.ExpectedQ)
	if err != nil {
		return nil, err
	}
	out.ExpectedObj = obj
	return out, nil
}

// EvaluateRealized scores posted prices against the *true* private
// parameters held in p: the realized best responses, spend, and bound. It
// is how tests and experiments measure the cost of incomplete information.
func (p *Params) EvaluateRealized(prices []float64) (q []float64, spend, obj float64, err error) {
	if len(prices) != p.N() {
		return nil, 0, 0, fmt.Errorf("game: %d prices for %d clients", len(prices), p.N())
	}
	q, err = p.BestResponseAll(prices)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range q {
		if q[i] < p.QMin {
			q[i] = p.QMin
		}
	}
	spend, err = TotalPayment(prices, q)
	if err != nil {
		return nil, 0, 0, err
	}
	obj, err = p.ServerObjective(q)
	if err != nil {
		return nil, 0, 0, err
	}
	return q, spend, obj, nil
}

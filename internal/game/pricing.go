package game

import (
	"errors"
	"fmt"
	"math"
)

// Outcome is a priced market state: the prices posted by the server and the
// clients' best-response participation levels, with spend diagnostics.
type Outcome struct {
	// Name is the registry name of the scheme that produced this outcome.
	Name  string
	P     []float64
	Q     []float64
	Spent float64
	// ServerObj is the Theorem-1 bound term attained by Q; lower is better.
	ServerObj float64
}

// solveProposed prices the market with the paper's mechanism: the
// Stackelberg-equilibrium customized prices from SolveKKT, which validates
// the game and evaluates the server objective itself.
func (p *Params) solveProposed() (*Outcome, error) {
	eq, err := p.SolveKKT()
	if err != nil {
		return nil, err
	}
	return &Outcome{P: eq.P, Q: eq.Q, Spent: eq.Spent, ServerObj: eq.ServerObj}, nil
}

// solveUniformPricing pays every client the same unit price, scaled to
// exhaust the budget (benchmark P^u).
func (p *Params) solveUniformPricing() (*Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.solveScaled(func(scale float64, prices []float64) {
		for i := range prices {
			prices[i] = scale
		}
	})
}

// solveWeightedPricing pays proportionally to data size, scaled to exhaust
// the budget (benchmark P^w).
func (p *Params) solveWeightedPricing() (*Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.solveScaled(func(scale float64, prices []float64) {
		for i := range prices {
			prices[i] = scale * p.A[i] * float64(p.N())
		}
	})
}

// solveScaled finds the largest nonnegative price scale whose induced spend
// stays within budget, by bisection on the scale's arithmetic midpoint.
// Spend is nondecreasing in the scale: higher prices induce (weakly) higher
// best responses and higher payments. Every probe posts its prices and the
// clients' best responses into the same two vectors, which end up in the
// Outcome.
//
// The crossing is deliberately not crossingPair's: the boundary here keeps
// spend == B on the feasible side, and the best responses come out of a
// Newton fixed point whose last bit is not monotone in the price, so a
// different probe sequence could end one ulp elsewhere.
func (p *Params) solveScaled(priceAt func(scale float64, prices []float64)) (*Outcome, error) {
	prices, q := make([]float64, p.N()), make([]float64, p.N())
	spend := func(scale float64) float64 {
		priceAt(scale, prices)
		var total float64
		for n, price := range prices {
			q[n] = p.bestResponse(n, price)
			total += price * q[n]
		}
		return total
	}

	// At scale 0 the spend is 0 <= B. Expand until over budget or saturated.
	hi := 1.0
	for i := 0; ; i++ {
		if spend(hi) > p.B {
			break
		}
		saturated := true
		for n, qn := range q {
			if qn < p.QMax-1e-12 && p.A[n] > 0 {
				saturated = false
				break
			}
		}
		if saturated {
			// Everyone participates fully; no reason to raise prices more.
			return p.outcomeAt(prices, q)
		}
		hi *= 4
		if i > 200 {
			return nil, errors.New("game: failed to bracket pricing scale")
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if spend(mid) > p.B {
			hi = mid
		} else {
			lo = mid
		}
	}
	if spend(lo) > p.B+1e-6*math.Max(1, p.B) {
		return nil, errors.New("game: scaled pricing exceeded budget")
	}
	return p.outcomeAt(prices, q)
}

// OutcomeFor evaluates a posted price vector into a full Outcome — the
// clients' best responses, the induced spend, and the Theorem-1 objective —
// labelled with the given scheme name. It is the building block for
// third-party PricingScheme implementations: compute prices however you
// like, then let the game evaluate them.
func (p *Params) OutcomeFor(name string, prices []float64) (*Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(prices) != p.N() {
		return nil, fmt.Errorf("game: %d prices for %d clients", len(prices), p.N())
	}
	q, err := p.BestResponseAll(prices)
	if err != nil {
		return nil, err
	}
	out, err := p.outcomeAt(prices, q)
	if err != nil {
		return nil, err
	}
	out.Name = name
	return out, nil
}

func (p *Params) outcomeAt(prices, q []float64) (*Outcome, error) {
	total, err := TotalPayment(prices, q)
	if err != nil {
		return nil, err
	}
	// A client priced out entirely (q_n = 0) makes the Theorem-1 bound
	// diverge: the model can never become unbiased without its data.
	obj := math.Inf(1)
	positive := true
	for _, qn := range q {
		if qn <= 0 {
			positive = false
			break
		}
	}
	if positive {
		obj, err = p.ServerObjective(q)
		if err != nil {
			return nil, err
		}
	}
	return &Outcome{P: prices, Q: q, Spent: total, ServerObj: obj}, nil
}

package game

import (
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/tensor"
)

// Interior reports whether client n's equilibrium level is strictly inside
// (QMin, QMax); the paper's Theorems 2–3 characterize interior clients.
func (p *Params) Interior(e *Equilibrium, n int, tol float64) bool {
	q := e.Q[n]
	return q > p.QMin+tol && q < p.QMax-tol
}

// Theorem2Invariant returns c_n q_n³/(a_n²G_n²) + v_n for each client.
// Theorem 2 proves this quantity is identical (= α/(4R) · 1/λ*... up to the
// shared constant 1/λ* rescaled) across all interior clients at equilibrium.
func (p *Params) Theorem2Invariant(e *Equilibrium) []float64 {
	out := make([]float64, p.N())
	for n := range out {
		q := e.Q[n]
		out[n] = 4*p.R/p.Alpha*p.C[n]*q*q*q/p.DataQuality(n) + p.V[n]
	}
	return out
}

// PriceEq18 evaluates the closed-form interior price of Theorem 3 (eq. 18):
//
//	P*_n = (2α c_n² a_n²G_n² / R)^{1/3} · [ (1/λ − v_n)^{1/3}
//	        − 2 ( v_n^{3/2} / (1/λ − v_n) )^{2/3} ]
//
// valid for interior clients with 1/λ > v_n. (Substituting eq. 22 into
// eq. 17 confirms this form: the second term reduces to v_n·(1/λ−v_n)^{-2/3}
// times the shared front factor.)
func (p *Params) PriceEq18(n int, lambda float64) (float64, error) {
	if n < 0 || n >= p.N() {
		return 0, fmt.Errorf("game: client index %d out of range", n)
	}
	if lambda <= 0 {
		return 0, errors.New("game: eq. 18 needs a positive multiplier")
	}
	slack := 1/lambda - p.V[n]
	if slack <= 0 {
		return 0, errors.New("game: eq. 18 needs 1/lambda > v_n")
	}
	front := cbrt(2 * p.Alpha * p.C[n] * p.C[n] * p.DataQuality(n) / p.R)
	v := p.V[n]
	second := tensor.Exp(1.5*tensor.Log(v)) / slack
	return front * (cbrt(slack) - 2*tensor.Exp(2.0/3.0*tensor.Log(second))), nil
}

// VerifyTheorem2 checks that the invariant agrees across interior clients
// within relative tolerance rel. It returns the interior client count.
func (p *Params) VerifyTheorem2(e *Equilibrium, rel float64) (int, error) {
	inv := p.Theorem2Invariant(e)
	first := -1.0
	count := 0
	for n := range inv {
		if !p.Interior(e, n, 1e-9) {
			continue
		}
		count++
		if first < 0 {
			first = inv[n]
			continue
		}
		if math.Abs(inv[n]-first) > rel*math.Max(math.Abs(first), 1e-12) {
			return count, fmt.Errorf(
				"game: theorem 2 invariant differs: client %d has %v, first interior has %v",
				n, inv[n], first)
		}
	}
	return count, nil
}

// VerifyTheorem3 checks the payment-direction threshold: interior clients
// with v_n below v_t = 1/(3λ) must have positive prices and those above
// must have negative prices.
func (p *Params) VerifyTheorem3(e *Equilibrium) error {
	if e.Lambda <= 0 {
		return nil // budget slack: no threshold to check
	}
	vt := e.Vt()
	for n := range e.P {
		if !p.Interior(e, n, 1e-9) {
			continue
		}
		switch {
		case p.V[n] < vt && e.P[n] <= 0:
			return fmt.Errorf("game: client %d has v=%v < vt=%v but P=%v <= 0",
				n, p.V[n], vt, e.P[n])
		case p.V[n] > vt && e.P[n] >= 0:
			return fmt.Errorf("game: client %d has v=%v > vt=%v but P=%v >= 0",
				n, p.V[n], vt, e.P[n])
		}
	}
	return nil
}

// VerifyLemma3 checks budget tightness for a binding equilibrium within
// relative tolerance rel.
func (p *Params) VerifyLemma3(e *Equilibrium, rel float64) error {
	if !e.BudgetTight {
		return nil
	}
	if math.Abs(e.Spent-p.B) > rel*math.Max(math.Abs(p.B), 1) {
		return fmt.Errorf("game: budget not tight: spent %v of %v", e.Spent, p.B)
	}
	return nil
}

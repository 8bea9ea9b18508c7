package game

import (
	"fmt"
	"math"
)

// Interior reports whether client n's equilibrium level is strictly inside
// (QMin, QMax); the paper's Theorems 2–3 characterize interior clients.
func (p *Params) Interior(e *Equilibrium, n int, tol float64) bool {
	q := e.Q[n]
	return q > p.QMin+tol && q < p.QMax-tol
}

// theorem2Invariant returns (4R/α) c_n q_n³/(a_n²G_n²) + v_n for each
// client. Theorem 2 proves this quantity equals 1/λ* for every interior
// client at equilibrium.
func (p *Params) theorem2Invariant(e *Equilibrium) []float64 {
	out := make([]float64, p.N())
	for n := range out {
		q := e.Q[n]
		out[n] = 4*p.R/p.Alpha*p.C[n]*q*q*q/p.DataQuality(n) + p.V[n]
	}
	return out
}

// VerifyTheorem2 checks that the invariant agrees across interior clients
// within relative tolerance rel. It returns the interior client count.
func (p *Params) VerifyTheorem2(e *Equilibrium, rel float64) (int, error) {
	inv := p.theorem2Invariant(e)
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

package game

import (
	"errors"
	"fmt"
	"math"
)

// Equilibrium is a solved Stackelberg equilibrium of the CPL game.
type Equilibrium struct {
	Q      []float64 // participation levels q*
	P      []float64 // prices P* (eq. 17); negative means the client pays
	Lambda float64   // budget multiplier λ*; 0 when the budget is slack
	Spent  float64   // Σ P*_n q*_n
	// ServerObj is g(q*) = (α/R) Σ (1−q_n) a²G²/q, the bound term the server
	// minimizes; lower is better.
	ServerObj float64
	// BudgetTight reports whether the budget constraint binds (Lemma 3: it
	// does whenever the unconstrained optimum q = qmax is unaffordable).
	BudgetTight bool
}

// Vt returns the payment-direction threshold v_t = 1/(3λ*) from Theorem 3.
// Clients with v_n < v_t receive money (P_n > 0); clients with v_n > v_t pay
// the server. It returns +Inf when the budget is slack (λ* = 0: everyone can
// be paid to the ceiling).
func (e *Equilibrium) Vt() float64 {
	if e.Lambda <= 0 {
		return math.Inf(1)
	}
	return 1 / (3 * e.Lambda)
}

// NegativePayments counts clients with P_n < 0 (they pay the server), the
// quantity reported in the paper's Table V.
func (e *Equilibrium) NegativePayments() int {
	count := 0
	for _, p := range e.P {
		if p < 0 {
			count++
		}
	}
	return count
}

// spendAt computes the total payment Σ P_n(q_n) q_n when every client is
// held at its eq.-17 price for the given q vector.
func (p *Params) spendAt(q []float64) (float64, error) {
	var s float64
	for n, qn := range q {
		price, err := p.PriceFor(n, qn)
		if err != nil {
			return 0, err
		}
		s += price * qn
	}
	return s, nil
}

// SolveKKT computes the Stackelberg equilibrium by pinning the budget
// multiplier λ of Problem P1′'s KKT system on the float lattice. Client
// payments P_n(q) q = 2 c_n q² − (α/R) v_n a_n²G_n²/q are strictly
// increasing in q and q_n(λ) is nonincreasing in λ, so total spend is
// monotone in λ and the search is exact up to floating-point resolution: λ*
// is the smallest representable multiplier whose induced spend fits the
// budget, reached in about a dozen O(N) spend passes from an analytic
// bracket (see crossingPair).
//
// SolveKKT is the cold entry point; it delegates to a fresh Solver. Callers
// solving many games (sweeps, sensitivity probes, Monte-Carlo scenarios)
// should reuse a Solver or use SolveMany, which skip per-solve allocations
// and warm-start the multiplier bracket with bit-identical results.
func (p *Params) SolveKKT() (*Equilibrium, error) {
	var s Solver
	return s.Solve(p)
}

// finishEquilibrium derives prices and diagnostics from a solved q vector.
func (p *Params) finishEquilibrium(q []float64, lambda float64, tight bool) (*Equilibrium, error) {
	prices := make([]float64, p.N())
	for n, qn := range q {
		price, err := p.PriceFor(n, qn)
		if err != nil {
			return nil, err
		}
		prices[n] = price
	}
	spent, err := TotalPayment(prices, q)
	if err != nil {
		return nil, err
	}
	obj, err := p.ServerObjective(q)
	if err != nil {
		return nil, err
	}
	return &Equilibrium{
		Q:           q,
		P:           prices,
		Lambda:      lambda,
		Spent:       spent,
		ServerObj:   obj,
		BudgetTight: tight,
	}, nil
}

// CheckConsistency verifies that an equilibrium is self-consistent: every
// client's best response to its price reproduces q (up to tol), and the
// spend respects the budget (up to tol·max(1,|B|)).
func (p *Params) CheckConsistency(e *Equilibrium, tol float64) error {
	if e == nil {
		return errors.New("game: nil equilibrium")
	}
	for n, qn := range e.Q {
		br, err := p.BestResponse(n, e.P[n])
		if err != nil {
			return err
		}
		// Interior points must match exactly; boundary points match the
		// clamped response.
		if math.Abs(br-qn) > tol {
			return fmt.Errorf("game: client %d best response %v != q %v", n, br, qn)
		}
	}
	if e.Spent > p.B+tol*math.Max(1, math.Abs(p.B)) {
		return fmt.Errorf("game: spend %v exceeds budget %v", e.Spent, p.B)
	}
	return nil
}

package game

import "math"

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

// Package game implements the paper's primary contribution: the Client
// Participation Level (CPL) Stackelberg game between an FL server and N
// rational clients.
//
// Stage I: the server chooses per-client prices P = {P_1..P_N} under budget
// B to minimize the Theorem-1 convergence bound of the resulting model.
// Stage II: each client n independently chooses its participation level
// q_n ∈ [0, q_max] to maximize its profit
//
//	U_n = P_n q_n − c_n q_n² + v_n (F(w*_n) − E[F(w^R(q))]),
//
// where the expected loss is approximated by the convergence bound. The
// package provides the client best response (eq. 13), the closed-form KKT /
// λ-bisection equilibrium solver (eqs. 17, 22), the paper's M-parameterized
// two-step solver for Problem P1” as a cross-check, the uniform and
// weighted (data-size proportional) pricing baselines of Section VI, and the
// equilibrium properties of Theorems 2–3 and Corollary 1.
//
// # The equilibrium engine
//
// Params.SolveKKT solves one game cold. Fleet-scale workloads — parameter
// sweeps, sensitivity probes, Monte-Carlo scenario batches, repeated
// Session queries — go through the engine layer instead:
//
//   - Solver owns scratch arenas and solves repeatedly with zero heap
//     allocations in steady state (Solver.SolveInto), warm-starting each
//     solve's multiplier bracket from the previous one.
//   - SolveMany batch-solves a slice of games across a fixed-order worker
//     pool with per-worker Solvers.
//   - SolveBayesianParallel evaluates the incomplete-information design's
//     Monte-Carlo expectations across a worker pool.
//   - Cache memoizes equilibria and priced outcomes by Params.Fingerprint,
//     so re-asking an unchanged question never re-runs the solver.
//
// # Determinism guarantees
//
// Every engine path is bit-identical to its cold sequential counterpart.
// The mechanism: each multiplier search terminates at the unique adjacent
// pair of floats straddling its monotone predicate's sign crossing — a
// property of the game alone, not of the search's starting bracket, probe
// sequence or method. Hence a warm-started Solver equals a cold SolveKKT no
// matter what it solved before, SolveMany equals a sequential loop for any
// worker count, and SolveBayesianParallel (common random numbers drawn up
// front, per-client slots, index-ordered reductions) equals its
// single-worker run for any GOMAXPROCS. Cache hits return values equal to
// fresh solves because the solver itself is deterministic.
package game

import (
	"errors"
	"fmt"
)

// Params collects every constant of the CPL game. Slices are indexed by
// client n = 0..N-1.
type Params struct {
	A     []float64 // data weights a_n = d_n / Σ d_m (sum to 1)
	G     []float64 // gradient-norm bounds G_n (Assumption 3)
	C     []float64 // local cost parameters c_n (cost = c_n q_n²)
	V     []float64 // intrinsic value preferences v_n ≥ 0
	Alpha float64   // α = 8LE/μ² from Theorem 1
	Beta  float64   // β constant from Theorem 1 (additive; 0 if unknown)
	R     float64   // number of training rounds
	B     float64   // server payment budget
	QMax  float64   // participation ceiling (paper: 1)
	QMin  float64   // positive floor keeping the estimator variance finite
}

// N returns the number of clients.
func (p *Params) N() int { return len(p.A) }

// Validate checks dimensions and ranges.
func (p *Params) Validate() error {
	n := p.N()
	if n == 0 {
		return errors.New("game: no clients")
	}
	if len(p.G) != n || len(p.C) != n || len(p.V) != n {
		return errors.New("game: parameter slice lengths differ")
	}
	var asum float64
	for i := 0; i < n; i++ {
		switch {
		case p.A[i] <= 0:
			return fmt.Errorf("game: a[%d] = %v must be positive", i, p.A[i])
		case p.G[i] <= 0:
			return fmt.Errorf("game: G[%d] = %v must be positive", i, p.G[i])
		case p.C[i] <= 0:
			return fmt.Errorf("game: c[%d] = %v must be positive", i, p.C[i])
		case p.V[i] < 0:
			return fmt.Errorf("game: v[%d] = %v must be nonnegative", i, p.V[i])
		}
		asum += p.A[i]
	}
	if asum < 0.999 || asum > 1.001 {
		return fmt.Errorf("game: data weights sum to %v, want 1", asum)
	}
	switch {
	case p.Alpha <= 0:
		return errors.New("game: alpha must be positive")
	case p.Beta < 0:
		return errors.New("game: beta must be nonnegative")
	case p.R <= 0:
		return errors.New("game: R must be positive")
	case p.QMax <= 0 || p.QMax > 1:
		return errors.New("game: qmax must be in (0, 1]")
	case p.QMin <= 0 || p.QMin >= p.QMax:
		return errors.New("game: qmin must be in (0, qmax)")
	}
	return nil
}

// DataQuality returns D_n = a_n² G_n², the combined data-quality term that
// drives both the convergence bound and the pricing formulas.
func (p *Params) DataQuality(n int) float64 {
	return p.A[n] * p.A[n] * p.G[n] * p.G[n]
}

// intrinsicGain returns K_n = v_n (α/R) a_n² G_n², the coefficient of the
// 1/q_n term in client n's utility derivative.
func (p *Params) intrinsicGain(n int) float64 {
	return p.V[n] * p.Alpha / p.R * p.DataQuality(n)
}

// ClampQ returns a copy of q with every level clamped into [QMin, QMax]:
// the unbiased estimator needs q > 0, so priced-out clients sit at the floor
// (almost never participating but remaining reachable). Every layer that
// turns a priced outcome into a participation vector goes through this one
// helper.
func (p *Params) ClampQ(q []float64) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		if v < p.QMin {
			v = p.QMin
		}
		if v > p.QMax {
			v = p.QMax
		}
		out[i] = v
	}
	return out
}

// Clone returns a deep copy of p, useful for parameter sweeps.
func (p *Params) Clone() *Params {
	cp := *p
	cp.A = append([]float64(nil), p.A...)
	cp.G = append([]float64(nil), p.G...)
	cp.C = append([]float64(nil), p.C...)
	cp.V = append([]float64(nil), p.V...)
	return &cp
}

// DefaultQMin is the participation floor used throughout the repository.
// Theorem 1 requires q_n > 0 for every client (otherwise the bound — and the
// number of rounds to converge — diverges).
const DefaultQMin = 1e-3

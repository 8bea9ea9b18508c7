package game

import (
	"errors"
	"math"
)

// MSearchOptions controls the paper's two-step solution of Problem P1″
// (Section V-B): an inner convex solve for each fixed value of the control
// variable M = Σ c_n q_n², and an outer line search over M with a fixed
// step size (the paper's ε₀).
type MSearchOptions struct {
	GridSteps int // outer line-search resolution over [M_lo, M_hi]
	Refine    int // local refinement passes around the best grid point
}

// DefaultMSearchOptions reaches the KKT solution within a fraction of a
// percent on all repository workloads.
func DefaultMSearchOptions() MSearchOptions {
	return MSearchOptions{GridSteps: 64, Refine: 3}
}

// msearchMultiplierCap mirrors the historical 1e18 ceiling on the inner
// multipliers: beyond it the box constraints have long since saturated.
const msearchMultiplierCap = 1e18

// SolveMSearch reproduces the paper's solution method for Problem P1″: for
// each candidate M it solves the inner convex problem
//
//	min_q Σ (1−q_n) a_n²G_n²/q_n
//	s.t.  2M − (α/R) Σ v_n a_n²G_n²/q_n ≤ B,   Σ c_n q_n² = M,   q ∈ box
//
// exactly via its KKT system (nested lattice searches for its two multipliers),
// then line-searches M and prices the winner via eq. 17. The paper invokes
// CVX for the inner solve; the closed-form KKT structure makes a dedicated
// solver both exact and dependency-free. SolveMSearch exists primarily as
// an independent cross-check of SolveKKT. It delegates to a fresh Solver;
// see Solver.SolveMSearch for the warm-started engine form.
func (p *Params) SolveMSearch(opts MSearchOptions) (*Equilibrium, error) {
	var s Solver
	return s.SolveMSearch(p, opts)
}

// SolveMSearch is the engine form of Params.SolveMSearch: the inner-problem
// participation vectors live in the Solver's scratch arena, and the ψ/θ
// multiplier boundary pairs are warm-started across the line-search grid
// steps (consecutive M values have nearby multipliers, so most inner
// searches start a few ulps from where they end). Both searches are
// crossingPair's, like SolveInto's. ψ's predicate is a monotone sum, so its
// pair is the same from any bracket. θ's re-solves ψ inside every probe and
// is monotone only down to that re-solve's last-bit jitter: in a few games
// per thousand it changes sign more than once within some ulps of the
// crossing, and there a warm solve may end on another of those crossings
// than a cold one — any search would; everywhere else results are
// bit-identical to a cold solve.
func (s *Solver) SolveMSearch(p *Params, opts MSearchOptions) (*Equilibrium, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.GridSteps < 2 || opts.Refine < 0 {
		return nil, errors.New("game: invalid M-search options")
	}
	n := p.N()
	s.msQ = growFloats(s.msQ, n)
	s.q = growFloats(s.q, n)
	s.gain = growFloats(s.gain, n)

	mLo, mHi := 0.0, 0.0
	for i := 0; i < n; i++ {
		s.gain[i] = p.intrinsicGain(i)
		mLo += p.C[i] * p.QMin * p.QMin
		mHi += p.C[i] * p.QMax * p.QMax
	}

	// evaluate scores one M candidate, leaving its q vector in s.msQ. Its
	// spend is spendOfLambda's, at the eq.-17 prices.
	evaluate := func(m float64) (float64, bool) {
		if !s.innerSolve(p, m) {
			return math.Inf(1), false
		}
		var spent float64
		for i, qi := range s.msQ {
			spent += eq17Price(p.C[i], s.gain[i], qi) * qi
		}
		if spent > p.B*(1+1e-9)+1e-9 {
			return math.Inf(1), false
		}
		obj, err := p.ServerObjective(s.msQ)
		if err != nil {
			return math.Inf(1), false
		}
		return obj, true
	}

	// The best candidate so far is kept in s.q, where finishInto reads it.
	lo, hi := mLo, mHi
	found := false
	bestObj := math.Inf(1)
	for pass := 0; pass <= opts.Refine; pass++ {
		var bestM float64
		improved := false
		for step := 0; step <= opts.GridSteps; step++ {
			m := lo + (hi-lo)*float64(step)/float64(opts.GridSteps)
			obj, ok := evaluate(m)
			if ok && obj < bestObj {
				bestObj = obj
				copy(s.q, s.msQ)
				bestM = m
				improved = true
				found = true
			}
		}
		if !improved {
			break
		}
		// Zoom into the neighbourhood of the winner for the next pass.
		width := (hi - lo) / float64(opts.GridSteps)
		lo = math.Max(mLo, bestM-2*width)
		hi = math.Min(mHi, bestM+2*width)
	}
	if !found {
		return nil, errors.New("game: M-search found no feasible point")
	}
	eq := new(Equilibrium)
	if err := s.finishInto(p, eq, 0, false); err != nil {
		return nil, err
	}
	eq.BudgetTight = math.Abs(eq.Spent-p.B) < 0.05*math.Max(1, math.Abs(p.B))
	return eq, nil
}

// innerQ writes the inner problem's stationarity point for multipliers
// (θ, ψ) into q and returns its cost Σ c_n q_n² in the same pass:
// q_i³ = D_i (1 − θ (α/R) v_i) / (2 ψ c_i), clamped to the box.
func (p *Params) innerQ(theta, psi float64, q []float64) float64 {
	var cost float64
	for i := range q {
		numer := p.DataQuality(i) * (1 - theta*p.Alpha/p.R*p.V[i])
		var qi float64
		if numer <= 0 || psi <= 0 {
			if numer <= 0 {
				qi = p.QMin
			} else {
				qi = p.QMax
			}
		} else {
			qi = clamp(cbrt(numer/(2*psi*p.C[i])), p.QMin, p.QMax)
		}
		q[i] = qi
		cost += p.C[i] * qi * qi
	}
	return cost
}

// innerSolve solves the fixed-M inner problem exactly through its KKT
// system, leaving the solution in s.msQ. For fixed θ, Σ c q(θ,ψ)² is
// nonincreasing in ψ, so ψ is pinned by a lattice search (crossingPair);
// the budget slack is then monotone in θ, so θ is pinned by an outer one.
// Both searches seed their brackets from the previous call's boundary
// pairs. Reports false when no feasible point exists for this M.
func (s *Solver) innerSolve(p *Params, m float64) bool {
	q := s.msQ

	// solvePsi pins ψ achieving Σ c q² = M for the given θ, leaving the
	// participation vector in q.
	solvePsi := func(theta float64) {
		if p.innerQ(theta, 0, q) <= m {
			// Even the ceiling cannot reach M (possible after clamping
			// high-v clients to QMin); keep the closest achievable point.
			return
		}
		f := func(psi float64) float64 { return p.innerQ(theta, psi, q) - m }
		lo, hi, flo, fhi, ok := seekBracket(s.warmPsi, f, msearchMultiplierCap)
		if ok {
			lo, hi = crossingPair(lo, hi, flo, fhi, f)
			s.warmPsi = lambdaBracket{lo: lo, hi: hi, ok: true}
		}
		p.innerQ(theta, hi, q)
	}
	budgetSlack := func() float64 {
		var intr float64
		for i, qi := range q {
			intr += p.V[i] * p.DataQuality(i) / qi
		}
		return p.B - (2*m - p.Alpha/p.R*intr)
	}

	solvePsi(0)
	if budgetSlack() >= 0 {
		return true
	}
	// Need θ > 0. Raising θ suppresses high-v clients, raising Σ v D / q and
	// restoring feasibility — unless no v is positive, in which case this M
	// is simply unaffordable.
	anyV := false
	for _, v := range p.V {
		if v > 0 {
			anyV = true
			break
		}
	}
	if !anyV {
		return false
	}
	fTheta := func(theta float64) float64 {
		solvePsi(theta)
		return -budgetSlack()
	}
	lo, hi, flo, fhi, ok := seekBracket(s.warmTheta, fTheta, msearchMultiplierCap)
	if !ok {
		return false
	}
	lo, hi = crossingPair(lo, hi, flo, fhi, fTheta)
	s.warmTheta = lambdaBracket{lo: lo, hi: hi, ok: true}
	solvePsi(hi)
	return true
}

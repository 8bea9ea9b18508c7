package game

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the fleet-scale equilibrium engine: a reusable Solver with
// caller-owned scratch arenas (zero heap allocations per solve in steady
// state), warm-started multiplier brackets for sequences of nearby games,
// and a fixed-order worker pool for batch solves.
//
// Determinism contract: every multiplier search in the engine ends on the
// IEEE-754 bit lattice, at an adjacent pair of floats (lo, hi) with
// f(lo) > 0 >= f(hi). A monotone f has exactly one such pair, so the pair is
// a property of f alone: not of the bracket the search started from, and
// not of the method that picked the probes in between. Hence a warm-started
// solve is bit-identical to a cold one, SolveMany is bit-identical to a
// sequential loop for any worker count, and crossingPair's probe strategy
// can change without moving an output bit (the tests hold it against the
// search it replaced, crossingPairRef, on 10^5 games). The spend predicate
// is monotone in exact arithmetic and, on every game family of the tests,
// in floating point; where rounding does break it — the fuzzer finds such
// games far outside the paper's regime, see
// FuzzCrossingPairMatchesReference — any search returns one of several
// crossings, and which one depends on where it started.

// lambdaBracket is a candidate bracket for a multiplier search: the boundary
// pair a previous search ended on, or SolveInto's analytic cold bracket.
type lambdaBracket struct {
	lo, hi float64
	ok     bool
}

// Solver is a reusable equilibrium engine. It owns scratch buffers for the
// spend probes and remembers the multiplier pairs of the previous solve, so
// a sequence of nearby games (sweep points, sensitivity probes, repriced
// epochs) starts its searches a few ulps from where they end. A Solver is
// not safe for concurrent use; SolveMany gives each worker its own.
//
// Results are bit-identical to Params.SolveKKT regardless of what the
// Solver solved before (see the determinism contract above).
type Solver struct {
	q    []float64 // participation scratch, written by every spend probe
	coef []float64 // per-client cbrt coefficient α a²G² / (4 R c)
	gain []float64 // per-client intrinsic gain K_n = v_n (α/R) a²G²

	warmLambda lambdaBracket // λ boundary pair from the previous solve
	probes     int           // spendOfLambda passes so far, for tests and benchmarks

	// M-search state: inner-problem scratch and the ψ/θ multiplier pairs
	// carried across grid steps (see SolveMSearch).
	msQ       []float64
	msBest    []float64
	warmPsi   lambdaBracket
	warmTheta lambdaBracket
}

// NewSolver returns an engine with empty scratch; buffers grow on first use
// and are reused afterwards.
func NewSolver() *Solver { return &Solver{} }

// Solve computes the Stackelberg equilibrium of p into a freshly allocated,
// caller-owned Equilibrium. It is bit-identical to p.SolveKKT().
func (s *Solver) Solve(p *Params) (*Equilibrium, error) {
	eq := new(Equilibrium)
	if err := s.SolveInto(p, eq); err != nil {
		return nil, err
	}
	return eq, nil
}

// SolveInto solves into a caller-owned Equilibrium, reusing eq.Q and eq.P
// when their capacity allows. With warm buffers it performs zero heap
// allocations, which keeps fleet-scale sweeps out of the garbage collector
// entirely.
func (s *Solver) SolveInto(p *Params, eq *Equilibrium) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.N()
	s.q = growFloats(s.q, n)
	s.coef = growFloats(s.coef, n)
	s.gain = growFloats(s.gain, n)
	for i := 0; i < n; i++ {
		d := p.DataQuality(i)
		s.coef[i] = p.Alpha * d / (4 * p.R * p.C[i])
		s.gain[i] = p.V[i] * p.Alpha / p.R * d
	}

	// Budget slack case: paying everyone to the ceiling is affordable.
	if spent := s.spendOfLambda(p, 0); spent <= p.B {
		return s.finishInto(p, eq, 0, false)
	}

	f := func(lambda float64) float64 { return s.spendOfLambda(p, lambda) - p.B }
	seed := s.warmLambda
	if !seed.ok {
		seed = s.coldBracket(p)
	}
	lo, hi, flo, fhi, ok := seekBracket(seed, f, math.MaxFloat64)
	if !ok {
		return errors.New("game: failed to bracket budget multiplier")
	}
	lo, hi = crossingPair(lo, hi, flo, fhi, f)
	s.warmLambda = lambdaBracket{lo: lo, hi: hi, ok: true}
	// The multiplier is the feasible endpoint: the smallest representable λ
	// with spend(λ) <= B.
	s.spendOfLambda(p, hi)
	return s.finishInto(p, eq, hi, true)
}

// coldBracket brackets the budget multiplier of a binding budget from the
// per-client constants alone, in u = 1/λ where eq. 22 reads
// q_n³ = coef_n (u − v_n):
//
//   - every client sits at QMax once u >= max_n (v_n + QMax³/coef_n), where
//     spend equals the slack probe's and so exceeds B;
//   - every client sits at QMin once u <= min_n (v_n + QMin³/coef_n); and,
//     far closer to the crossing unless the budget is near that floor,
//     spend <= Σ 2 c_n q_n² <= 2 QMin² Σc + 2 (Σc)^(1/3) (u Σ c_n coef_n)^(2/3)
//     (Jensen on the concave x^(2/3)) fits B once
//     u <= β √(β/Σc) / Σ c_n coef_n with β = B/2 − QMin² Σc.
//
// The ends are claims in exact arithmetic: seekBracket probes both and
// gallops outward from whichever one rounding has defeated. A degenerate
// pair (overflowed or underflowed constants) reports !ok and leaves the
// search to seekBracket's cold start.
func (s *Solver) coldBracket(p *Params) lambdaBracket {
	qMax3, qMin3 := p.QMax*p.QMax*p.QMax, p.QMin*p.QMin*p.QMin
	uCeil, uFloor := 0.0, math.Inf(1)
	var sumC, sumCK float64
	for i, k := range s.coef {
		inv := 1 / k
		if u := p.V[i] + qMax3*inv; u > uCeil {
			uCeil = u
		}
		if u := p.V[i] + qMin3*inv; u < uFloor {
			uFloor = u
		}
		sumC += p.C[i]
		sumCK += p.C[i] * k
	}
	beta := p.B/2 - p.QMin*p.QMin*sumC
	if u := beta * math.Sqrt(beta/sumC) / sumCK; u > uFloor { // false for NaN: β < 0
		uFloor = u
	}
	lo, hi := 1/uCeil, math.Min(1/uFloor, math.MaxFloat64)
	return lambdaBracket{lo: lo, hi: hi, ok: lo < hi}
}

// spendOfLambda writes the KKT stationarity solution q(λ) (eq. 22) into
// the scratch vector and returns the induced spend Σ P_n(q_n) q_n at the
// eq.-17 prices, in one allocation-free pass. Interior optima satisfy
// 1/λ = (4R/α)·c_n q³/(a_n²G_n²) + v_n, i.e.
// q_n(λ) = cbrt( (α a_n²G_n² / (4R c_n)) · (1/λ − v_n) ), clamped to the
// box; the precomputed coef/gain arrays hold the per-client constants.
func (s *Solver) spendOfLambda(p *Params, lambda float64) float64 {
	s.probes++
	q := s.q
	coef, gain, c, v := s.coef[:len(q)], s.gain[:len(q)], p.C[:len(q)], p.V[:len(q)]
	qMin, qMax := p.QMin, p.QMax
	u := 1 / lambda
	var spend float64
	for i := range q {
		var qi float64
		if lambda <= 0 {
			qi = qMax
		} else if slack := u - v[i]; slack <= 0 {
			qi = qMin
		} else {
			qi = clamp(cbrt(coef[i]*slack), qMin, qMax)
		}
		q[i] = qi
		spend += (2*c[i]*qi - gain[i]/(qi*qi)) * qi
	}
	return spend
}

// seekBracket establishes f(lo) > 0 >= f(hi) for a function that is
// positive below its crossing and nonpositive above it. A seed pair — the
// previous search's boundary pair, or an analytic bracket — is probed at
// both ends: still valid it is used as it is; invalidated it is galloped
// outward ×4 from the end the crossing moved past. Without a seed the
// bracket grows geometrically from [0, 1]. hi is capped at limit: an f still
// positive there returns ok=false with hi=limit, letting each caller decide
// whether saturation is an error. An f that is nonpositive all the way down
// to 0 also reports ok=false.
func seekBracket(seed lambdaBracket, f func(float64) float64, limit float64) (lo, hi, flo, fhi float64, ok bool) {
	if seed.ok {
		lo, hi = seed.lo, seed.hi
		fhi = f(hi)
		switch {
		case fhi > 0: // the crossing moved above the pair
			lo, flo = hi, fhi
			for {
				hi *= 4
				if hi > limit || math.IsInf(hi, 1) {
					return lo, limit, flo, 0, false
				}
				if fhi = f(hi); fhi <= 0 {
					return lo, hi, flo, fhi, true
				}
				lo, flo = hi, fhi
			}
		default:
			if flo = f(lo); flo > 0 { // the pair still brackets the crossing
				return lo, hi, flo, fhi, true
			}
			// The crossing moved below the pair.
			hi, fhi = lo, flo
			for {
				lo /= 4
				if lo < math.SmallestNonzeroFloat64 {
					lo = 0
				}
				if flo = f(lo); flo > 0 {
					return lo, hi, flo, fhi, true
				}
				if lo == 0 {
					return 0, hi, 0, fhi, false
				}
				hi, fhi = lo, flo
			}
		}
	}
	lo, hi = 0, 1
	for {
		if fhi = f(hi); fhi <= 0 {
			return lo, hi, flo, fhi, true
		}
		lo, flo = hi, fhi
		hi *= 4
		if hi > limit || math.IsInf(hi, 1) {
			return lo, limit, flo, 0, false
		}
	}
}

// finishInto derives prices and diagnostics from the scratch q vector.
func (s *Solver) finishInto(p *Params, eq *Equilibrium, lambda float64, tight bool) error {
	n := p.N()
	eq.Q = growFloats(eq.Q, n)
	eq.P = growFloats(eq.P, n)
	copy(eq.Q, s.q)
	var spent float64
	for i := 0; i < n; i++ {
		qi := eq.Q[i]
		price := 2*p.C[i]*qi - s.gain[i]/(qi*qi)
		eq.P[i] = price
		spent += price * qi
	}
	obj, err := p.ServerObjective(eq.Q)
	if err != nil {
		return err
	}
	eq.Lambda = lambda
	eq.Spent = spent
	eq.ServerObj = obj
	eq.BudgetTight = tight
	return nil
}

// crossingBudget is how many probes of one crossingPair search may be
// interpolated. Every later probe is the lattice midpoint, and no bracket
// of nonnegative floats survives more than 63 of those, so a search costs
// at most 64 + 63 probes for any f whatsoever — non-monotone, noisy, NaN or
// ±Inf valued. The bound is the loop counter's, not an argument about f.
const crossingBudget = 64

// crossingPair narrows a valid bracket (f(lo) > 0 >= f(hi), flo/fhi the
// values at its ends) to an adjacent pair of nonnegative floats with
// f(lo) > 0 >= f(hi): every probe lies strictly inside the bracket and
// replaces the end on its side, so that much holds for any f, and for a
// monotone f the pair is the only one there is (see the determinism
// contract above: neither the bracket nor the probe strategy can move it).
//
// The strategy works in lattice coordinates — a nonnegative float's bit
// pattern read as an integer, which orders the floats and spaces them
// logarithmically, so a step crosses hundreds of orders of magnitude as
// readily as one ulp. Each candidate is the root of the secant through the
// newest iterate and its nearest known neighbour: the end that iterate
// displaced or the opposite end, whichever is closer. On the smooth spend
// curves of a game that converges superlinearly from one side, without
// waiting for the far end to move. Three safeguards do the rest:
//
//   - a secant root outside the bracket, or an undefined one (equal or
//     non-finite values), gives way to the lattice midpoint;
//   - a step shorter than minStep lattice points is raised to it; minStep
//     starts at 1, doubles while such steps keep landing on the iterate's
//     own side and halves otherwise. This gallop is what collapses the far
//     end onto the 1-ulp pair once the secant has converged, and what walks
//     off a plateau of exact zeros (near the crossing spend − B moves in
//     steps of ulp(B)) in 2 log₂(width) probes instead of bisecting the
//     whole bracket;
//   - past crossingBudget probes every candidate is the midpoint.
//
// A cold SolveInto spends 12–16 spendOfLambda passes on average, the slack
// probe, both bracket ends and the final evaluation included, and at most
// 26 (TestColdSolveProbeBudget; the one-sided regula falsi this replaces:
// 50–58 and 83); one seeded with a nearby game's pair 10–13, with the same
// game's pair 4.
func crossingPair(lo, hi, flo, fhi float64, f func(float64) float64) (float64, float64) {
	blo, bhi := math.Float64bits(lo), math.Float64bits(hi)
	// (xn, fn) is the newest iterate, always one of the bracket's ends;
	// (xs, fs) the second point of the secant.
	xn, fn, xs, fs := bhi, fhi, blo, flo
	minStep := 1.0
	for probes := 0; bhi-blo > 1; probes++ {
		w := bhi - blo
		d := w / 2 // the candidate's offset from blo
		galloped := false
		if probes < crossingBudget {
			// Lattice distance from xn into the bracket to the secant's root.
			s := -fn * float64(int64(xn-xs)) / (fn - fs)
			if xn == bhi {
				s = -s
			}
			if fn == 0 {
				s = 0 // also when fs == 0: on a zero plateau the only way is down
			}
			if s < minStep {
				s, galloped = minStep, true
			}
			if s < float64(w) { // false for NaN
				d = uint64(s)
				if xn == bhi {
					d = w - d
				}
			} else {
				galloped = false
			}
		}
		x := blo + d
		fx := f(math.Float64frombits(x))
		// The probe displaces the end on its side, near lattice points away,
		// and faces the opposite end (xo, fo), far lattice points away.
		near, far, xo, fo := d, w-d, bhi, fhi
		if fx > 0 {
			xs, fs, blo, flo = blo, flo, x, fx
		} else {
			near, far, xo, fo = far, near, blo, flo
			xs, fs, bhi, fhi = bhi, fhi, x, fx
		}
		if galloped && xs == xn {
			minStep *= 2
		} else {
			minStep = math.Max(1, minStep/2)
		}
		if far <= near {
			xs, fs = xo, fo
		}
		xn, fn = x, fx
	}
	return math.Float64frombits(blo), math.Float64frombits(bhi)
}

// growFloats returns s resized to n, reusing its backing array when the
// capacity allows.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// BatchError reports which game of a SolveMany batch failed.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("game: batch solve %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying solver error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// SolveMany solves a batch of games across a fixed-order worker pool with
// per-worker scratch, warm-starting along each worker's index stream.
// results[i] is games[i]'s equilibrium, bit-identical to a sequential
// p.SolveKKT() loop for any worker count (workers <= 0 means GOMAXPROCS).
// On failure it returns the lowest-index error wrapped in a *BatchError.
func SolveMany(games []*Params, workers int) ([]*Equilibrium, error) {
	return SolveManyContext(context.Background(), games, workers)
}

// SolveManyContext is SolveMany with cancellation: games not yet started
// when ctx is cancelled are abandoned and ctx.Err() is returned.
func SolveManyContext(ctx context.Context, games []*Params, workers int) ([]*Equilibrium, error) {
	n := len(games)
	if n == 0 {
		return nil, errors.New("game: empty batch")
	}
	for i, g := range games {
		if g == nil {
			return nil, &BatchError{Index: i, Err: errors.New("game: nil params")}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]*Equilibrium, n)
	errs := make([]error, n)
	if workers == 1 {
		s := NewSolver()
		for i, g := range games {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i], errs[i] = s.Solve(g)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := NewSolver()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || ctx.Err() != nil {
						return
					}
					out[i], errs[i] = s.Solve(games[i])
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	return out, nil
}

// parallelFor runs fn(i) for every i in [0, n) across at most workers
// goroutines (1 means inline). fn must touch only index-i state; callers
// reduce results in index order to stay bit-identical for any worker count.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

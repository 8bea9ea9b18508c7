package game

import (
	"math"
	"runtime"
	"testing"

	"unbiasedfl/internal/stats"
)

// spendOfLambdaRef is spendOfLambda as it was before its probe fanned out,
// kept as the oracle of TestSpendFanOutMatchesSerial: one pass over the
// clients on the caller, the spend summed in index order from +0. It writes
// q(λ) into q rather than the Solver's scratch; s supplies coef and gain.
func spendOfLambdaRef(s *Solver, p *Params, lambda float64, q []float64) float64 {
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
		spend += eq17Price(c[i], gain[i], qi) * qi
	}
	return spend
}

// sameQ fails the test at the first client whose q differs from want's in
// any bit.
func sameQ(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: q[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestSpendFanOutMatchesSerial holds the fanned-out spend probe to the
// one-pass loop it replaced: at λ = 0, at both ends of the budget crossing
// and at seeded random λ around it, the spend and every q_n must be the
// reference's bit for bit, on games of two full index ranges, of a ragged
// last range and of several, at GOMAXPROCS 1, 2 and 8. It also holds the
// end of SolveInto to the reference: the equilibrium's q is q(λ*), and the
// probe budgetGap kept stands in for q(λ) only at its own λ.
func TestSpendFanOutMatchesSerial(t *testing.T) {
	games := []struct {
		name string
		p    *Params
	}{
		{"two ranges", engineGame(t, 11, 2*spendChunk)},
		{"ragged by one", engineGame(t, 12, 2*spendChunk+1)},
		{"quote-cold", quoteColdGame(13, 5*spendChunk-7)},
		{"lognormal", lognormalGame(14, 3*spendChunk+spendChunk/2)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, g := range games {
			name, p := g.name, g.p
			s := NewSolver()
			var eq Equilibrium
			if err := s.SolveInto(p, &eq); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !eq.BudgetTight {
				t.Fatalf("%s: test bug: the budget is slack", name)
			}
			ref := make([]float64, p.N())
			spendRef := spendOfLambdaRef(s, p, eq.Lambda, ref)
			sameQ(t, name+": equilibrium", eq.Q, ref)
			if !(spendRef <= p.B) {
				t.Fatalf("%s: λ* = %v spends %v over the budget %v", name, eq.Lambda, spendRef, p.B)
			}

			r := stats.NewRNG(uint64(procs)*1000 + uint64(p.N()))
			lambdas := []float64{0, eq.Lambda, math.Nextafter(eq.Lambda, 0)}
			for i := 0; i < 8; i++ {
				lambdas = append(lambdas, eq.Lambda*math.Pow(10, 6*r.Float64()-3))
			}
			for _, lambda := range lambdas {
				want := spendOfLambdaRef(s, p, lambda, ref)
				got := s.spendOfLambda(p, lambda)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s GOMAXPROCS=%d λ=%v: spend %v, want %v", name, procs, lambda, got, want)
				}
				sameQ(t, name+": probe", s.q, ref)
			}

			// A kept probe is settled at its own λ; at any other λ it is not.
			s.keptLambda = math.NaN()
			s.budgetGap(p, eq.Lambda)
			s.settleAt(p, 2*eq.Lambda)
			spendOfLambdaRef(s, p, 2*eq.Lambda, ref)
			sameQ(t, name+": settled past the kept probe", s.q, ref)
			s.budgetGap(p, eq.Lambda)
			s.settleAt(p, eq.Lambda)
			spendOfLambdaRef(s, p, eq.Lambda, ref)
			sameQ(t, name+": settled at the kept probe", s.q, ref)
		}
	}
}

// TestFleetSolveAllocsDoNotGrowWithN: above the fan-out threshold a
// steady-state SolveInto allocates only stats.ParallelFor's state for each
// of its probes, never anything per client or per index range. The solves
// are warm on the same game, so both sizes make the same three probes. It
// counts mallocs itself, at GOMAXPROCS 2, because testing.AllocsPerRun runs
// at GOMAXPROCS 1, where ParallelFor starts no pool.
func TestFleetSolveAllocsDoNotGrowWithN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocs := func(n int) uint64 {
		p := engineGame(t, 21, n)
		s := NewSolver()
		var eq Equilibrium
		solve := func() {
			if err := s.SolveInto(p, &eq); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		// The runtime's own allocations can only add to a window's count,
		// so the fewest over several windows is the solves'.
		const windows, runs = 5, 4
		fewest := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for w := 0; w < windows; w++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			for i := 0; i < runs; i++ {
				solve()
			}
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, (ms.Mallocs-before)/runs)
		}
		return fewest
	}
	small, large := allocs(8*spendChunk), allocs(32*spendChunk)
	t.Logf("%d allocs per solve at N=%d, %d at N=%d", small, 8*spendChunk, large, 32*spendChunk)
	if large > small {
		t.Fatalf("%d allocs per solve at N=%d, %d at N=%d", small, 8*spendChunk, large, 32*spendChunk)
	}
}

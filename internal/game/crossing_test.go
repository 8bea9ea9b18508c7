package game

import (
	"encoding/binary"
	"math"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// This file holds crossingPair to its two contracts: on the predicates of
// real games it returns, bit for bit, the pair the search it replaced
// returned (crossingPairRef in engine_test.go, from any bracket), and on
// predicates no game produces it still ends, within its counted budget, on
// a valid adjacent pair.

// quoteColdGame draws one game of the benchmark's quote-cold body family
// (benchmark/quote.go): near-homogeneous clients, a budget a third of what
// full participation costs.
func quoteColdGame(seed uint64, n int) *Params {
	r := stats.NewRNG(seed ^ 0x900D5EED)
	p := &Params{
		A: make([]float64, n), G: make([]float64, n), C: make([]float64, n), V: make([]float64, n),
		Alpha: 1, Beta: 1, R: 100, QMax: 1, QMin: DefaultQMin,
	}
	var asum float64
	for j := 0; j < n; j++ {
		p.A[j] = 0.5 + r.Float64()
		asum += p.A[j]
		p.G[j] = 0.5 + r.Float64()
		p.C[j] = 41 + 16*r.Float64()
		p.V[j] = 3000 + 2000*r.Float64()
		p.B += p.C[j] / 3
	}
	for j := range p.A {
		p.A[j] /= asum
	}
	return p
}

// lognormalGame draws a game whose α, R, cost and valuation scales each
// range over ±4 decades, with log-normal spread between clients: the
// valuations that matter here put sharp knees into the spend curve. It draws
// through tensor.Exp and tensor.Log, whose bits are the same on every host,
// so the game — and the solve digests pinned on it — do not depend on the
// CPU's FMA support as math.Exp and math.Pow do.
func lognormalGame(seed uint64, n int) *Params {
	r := stats.NewRNG(seed ^ 0xABCDEF)
	ln10 := tensor.Log(10)
	decades := func() float64 { return tensor.Exp(float64((8*r.Float64() - 4) * ln10)) }
	p := &Params{
		A: make([]float64, n), G: make([]float64, n), C: make([]float64, n), V: make([]float64, n),
		Alpha: decades(), R: 1000 * decades(), QMax: 1, QMin: DefaultQMin,
	}
	cScale, vScale := 50*decades(), 4000*decades()
	var asum float64
	for j := 0; j < n; j++ {
		p.A[j] = 0.2 + r.Float64()
		asum += p.A[j]
		p.G[j] = 1 + 24*r.Float64()
		p.C[j] = cScale * tensor.Exp(r.NormFloat64())
		p.V[j] = vScale * tensor.Exp(r.NormFloat64())
	}
	for j := range p.A {
		p.A[j] /= asum
	}
	lo, hi := spendRange(p)
	p.B = lo + (hi-lo)*r.Float64()
	return p
}

// spendRange returns what the all-QMin and the all-QMax profiles cost: the
// budgets between them are the binding ones.
func spendRange(p *Params) (floor, ceil float64) {
	for n := range p.A {
		k := p.intrinsicGain(n)
		floor += 2*p.C[n]*p.QMin*p.QMin - k/p.QMin
		ceil += 2*p.C[n]*p.QMax*p.QMax - k/p.QMax
	}
	return floor, ceil
}

// perturbGame moves p into one of the corners the search must not care
// about: a ceiling below 1, clients without intrinsic value, and budgets
// within 10^-6 of slack and of the all-QMin floor.
func perturbGame(p *Params, r *stats.RNG, corner int) {
	switch corner {
	case 1:
		p.QMax = 0.05 + 0.9*r.Float64()
		p.QMin = p.QMax * math.Pow(10, -4*r.Float64()-0.1)
	case 2:
		for n := range p.V {
			if r.Float64() < 0.5 {
				p.V[n] = 0
			}
		}
	case 3, 4:
		floor, ceil := spendRange(p)
		eps := 1e-6 * r.Float64() * (ceil - floor)
		if corner == 3 {
			p.B = ceil - eps
		} else {
			p.B = floor + eps
		}
	}
}

// sameBits reports whether two boundary pairs are the same four floats.
func sameBits(a, b [2]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
}

// lambdaPairs pins p's budget multiplier four ways — crossingPairRef from
// the historical cold bracket (the oracle), and crossingPair from that
// bracket, from SolveInto's analytic one and from the stale pair another
// game left — and reports whether all four are the same pair. Each must at
// least be a crossing; when they are but differ, the predicate changes sign
// more than once and there is no one pair to return (see the determinism
// contract in engine.go). tight is false when the budget is slack or the
// game unsolvable, for the old and the new cold start alike.
func lambdaPairs(t testing.TB, s *Solver, p *Params, stale lambdaBracket) (same, tight bool) {
	t.Helper()
	s.warmLambda = lambdaBracket{}
	var eq Equilibrium
	err := s.SolveInto(p, &eq) // leaves coef/gain filled for the probes below
	if err == nil && !eq.BudgetTight {
		return true, false
	}
	f := func(lambda float64) float64 { return s.spendOfLambda(p, lambda) - p.B }
	lo, hi, flo, fhi, ok := seekBracket(lambdaBracket{}, f, math.MaxFloat64)
	if !ok || err != nil {
		if ok != (err == nil) {
			t.Errorf("old cold start bracketed: %v, new solve: %v", ok, err)
		}
		return true, false
	}
	var pairs [4][2]float64 // reference, old cold bracket, analytic, stale
	pairs[2] = [2]float64{s.warmLambda.lo, s.warmLambda.hi}
	pairs[0][0], pairs[0][1] = crossingPairRef(lo, hi, flo, fhi, f)
	pairs[1][0], pairs[1][1] = crossingPair(lo, hi, flo, fhi, f)
	if lo, hi, flo, fhi, ok = seekBracket(stale, f, math.MaxFloat64); !ok {
		t.Errorf("stale pair %+v failed to bracket", stale)
		return false, true
	}
	pairs[3][0], pairs[3][1] = crossingPair(lo, hi, flo, fhi, f)
	same = true
	for i, pair := range pairs {
		if math.Float64bits(pair[1])-math.Float64bits(pair[0]) != 1 || !(f(pair[0]) > 0) || f(pair[1]) > 0 {
			t.Errorf("N=%d B=%v: search %d of %v ended off a crossing", p.N(), p.B, i, pairs)
		}
		same = same && sameBits(pair, pairs[0])
	}
	return same, true
}

// TestCrossingPairMatchesReference is the bit-identity gate of the search
// replacement: over 10^5 seeded games — the quote-cold family, the Table-I
// family, scales over ±4 decades, N from 1 to 4096, and the corners of
// perturbGame — the new search returns the old one's pair from the old cold
// bracket, the analytic one and the previous game's stale one. That no game
// here has a second crossing is an observation about these families, not a
// theorem: FuzzCrossingPairMatchesReference finds games that do.
func TestCrossingPairMatchesReference(t *testing.T) {
	games := 100000
	if testing.Short() {
		games = 5000
	}
	s := NewSolver()
	tight, diffs := 0, 0
	for i := 0; i < games && !t.Failed(); i++ {
		seed := uint64(i + 1)
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(64)
		if i%1000 == 999 {
			n = 4096 >> r.Intn(4) // a few fleet-sized ones
		}
		var p *Params
		switch i % 3 {
		case 0:
			p = quoteColdGame(seed, n)
		case 1:
			p = engineGame(t, seed, n)
		default:
			p = lognormalGame(seed, n)
		}
		perturbGame(p, r, i/3%5)
		same, bound := lambdaPairs(t, s, p, s.warmLambda)
		if bound {
			tight++
		}
		if !same {
			diffs++
			t.Errorf("game %d (N=%d, B=%v): the searches ended on different crossings", i, p.N(), p.B)
		}
	}
	if tight < games/2 {
		t.Fatalf("only %d of %d games had a binding budget", tight, games)
	}
	t.Logf("%d games, %d with a binding budget, %d with differing pairs", games, tight, diffs)
}

// TestCrossingPairMatchesReferenceMSearch repeats the comparison on the two
// predicates of the M-search's inner problem. ψ, pinning Σ c q² = M for a
// fixed θ, is a monotone sum like the budget's and must give the reference
// pair. θ, pinning the budget, re-solves ψ inside every probe, and where
// (α/R) θ v is far below 1 that re-solve's last-bit jitter outweighs what
// an ulp of θ moves: in a few games per thousand the predicate changes sign
// more than once, and which crossing a search ends on depends on its
// bracket and its probes — the reference search's too. There is no single
// pair to agree on then, and two different valid crossings are themselves
// the proof of it; so θ's pair must be a valid crossing always, and how
// often it is not the reference's is logged, not judged.
func TestCrossingPairMatchesReferenceMSearch(t *testing.T) {
	games := 1000
	if testing.Short() {
		games = 100
	}
	// compare runs both searches from f's cold bracket.
	compare := func(f func(float64) float64) (want, got [2]float64, ok bool) {
		lo, hi, flo, fhi, ok := seekBracket(lambdaBracket{}, f, msearchMultiplierCap)
		if ok {
			want[0], want[1] = crossingPairRef(lo, hi, flo, fhi, f)
			got[0], got[1] = crossingPair(lo, hi, flo, fhi, f)
		}
		return want, got, ok
	}
	psis, thetas, thetaDiffs := 0, 0, 0
	for i := 0; i < games; i++ {
		seed := uint64(i + 1)
		r := stats.NewRNG(seed)
		p := engineGame(t, seed, 2+r.Intn(12))
		if i%2 == 1 {
			p = quoteColdGame(seed, 2+r.Intn(12))
		}
		q := make([]float64, p.N())
		var mLo, mHi float64
		for n := range q {
			mLo += p.C[n] * p.QMin * p.QMin
			mHi += p.C[n] * p.QMax * p.QMax
		}
		m := mLo + (mHi-mLo)*r.Float64()
		fPsi := func(theta float64) func(float64) float64 {
			return func(psi float64) float64 { return p.innerQ(theta, psi, q) - m }
		}
		for _, theta := range []float64{0, r.Float64() * p.R / p.Alpha / 8000} {
			if p.innerQ(theta, 0, q) <= m {
				continue
			}
			if want, got, ok := compare(fPsi(theta)); ok {
				psis++
				if !sameBits(want, got) {
					t.Errorf("game %d: psi at theta %v: reference pair %v, got %v", i, theta, want, got)
				}
			}
		}
		// fTheta mirrors innerSolve's: the budget's excess at q(θ, ψ*(θ)).
		fTheta := func(theta float64) float64 {
			if p.innerQ(theta, 0, q) > m {
				f := fPsi(theta)
				lo, hi, flo, fhi, ok := seekBracket(lambdaBracket{}, f, msearchMultiplierCap)
				if ok {
					_, hi = crossingPairRef(lo, hi, flo, fhi, f)
				}
				p.innerQ(theta, hi, q)
			}
			var intr float64
			for n, qn := range q {
				intr += p.V[n] * p.DataQuality(n) / qn
			}
			return 2*m - p.Alpha/p.R*intr - p.B
		}
		if !(fTheta(0) > 0) {
			continue
		}
		want, got, ok := compare(fTheta)
		if !ok {
			continue
		}
		thetas++
		if math.Float64bits(got[1])-math.Float64bits(got[0]) != 1 || !(fTheta(got[0]) > 0) || fTheta(got[1]) > 0 {
			t.Errorf("game %d: theta: %v is not a crossing", i, got)
		}
		if !sameBits(want, got) {
			thetaDiffs++
		}
	}
	t.Logf("%d psi pairs identical; %d of %d theta pairs are another crossing than the reference's", psis, thetaDiffs, thetas)
	if psis < games/2 || thetas < games/4 {
		t.Fatalf("only %d psi and %d theta crossings compared over %d games", psis, thetas, games)
	}
}

// fuzzGame decodes fuzzer bytes into a valid game: two bytes per quantity,
// a six-quantity header (α, R, QMax, QMin/QMax, where the budget sits
// between floor and ceiling, how sharply it hugs one of them), then four
// quantities per client.
func fuzzGame(data []byte) *Params {
	unit := func() float64 {
		if len(data) < 2 {
			return 0.5
		}
		v := float64(binary.LittleEndian.Uint16(data)) / 65535
		data = data[2:]
		return v
	}
	span := func(loExp, hiExp float64) float64 { return math.Pow(10, loExp+(hiExp-loExp)*unit()) }
	p := &Params{Alpha: span(-3, 3), R: span(0, 5), QMax: 0.05 + 0.95*unit()}
	p.QMin = p.QMax * span(-4, -0.1)
	at, hug := unit(), span(-9, 0)
	n := min(max(len(data)/8, 1), 64)
	var asum float64
	for j := 0; j < n; j++ {
		a := 0.05 + unit()
		asum += a
		p.A = append(p.A, a)
		p.G = append(p.G, span(-2, 2))
		p.C = append(p.C, span(-3, 4))
		v := span(-3, 6)
		if v < 1e-2 {
			v = 0
		}
		p.V = append(p.V, v)
	}
	for j := range p.A {
		p.A[j] /= asum
	}
	floor, ceil := spendRange(p)
	if at < 0.5 {
		p.B = floor + (ceil-floor)*2*at*hug
	} else {
		p.B = ceil - (ceil-floor)*2*(1-at)*hug
	}
	return p
}

// FuzzCrossingPairMatchesReference is TestCrossingPairMatchesReference
// with the fuzzer choosing the games; the stale bracket is the pair of the
// same game under a budget 1 % of the binding range away. Far from any
// paper regime the fuzzer does find budget predicates with several
// crossings — a game of eleven clients, nine held at QMin and paying the
// server 1.6·10^7 between them, where one ulp of λ moves the spend by less
// than the rounding of a negative-price term — so a differing pair fails
// only when one of the pairs is not a crossing; otherwise the input is
// skipped.
func FuzzCrossingPairMatchesReference(f *testing.F) {
	r := stats.NewRNG(23)
	for i := 0; i < 32; i++ {
		seed := make([]byte, 12+8*(1+r.Intn(24)))
		for j := range seed {
			seed[j] = byte(r.Uint64())
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzGame(data)
		if err := p.Validate(); err != nil {
			t.Skip(err)
		}
		sibling := *p
		floor, ceil := spendRange(p)
		sibling.B += 0.01 * (ceil - floor)
		s := NewSolver()
		var eq Equilibrium
		if err := s.SolveInto(&sibling, &eq); err != nil {
			t.Skip(err)
		}
		if same, _ := lambdaPairs(t, s, p, s.warmLambda); !same && !t.Failed() {
			t.Skip("the budget predicate has several crossings")
		}
	})
}

// crossingProbeBound is the worst case crossingPair promises for any
// predicate whatsoever.
const crossingProbeBound = 2*64 + 8

// checkCrossing runs crossingPair on f over [lo, hi], requires a valid
// adjacent pair within the probe bound, and returns the probes spent.
func checkCrossing(t *testing.T, label string, lo, hi float64, f func(float64) float64) int {
	t.Helper()
	flo, fhi := f(lo), f(hi)
	if !(flo > 0) || fhi > 0 {
		t.Fatalf("%s: test bug: [%v, %v] is not a bracket (f = %v, %v)", label, lo, hi, flo, fhi)
	}
	probes := 0
	a, b := crossingPair(lo, hi, flo, fhi, func(x float64) float64 {
		if probes++; probes > crossingProbeBound {
			t.Fatalf("%s: more than %d probes", label, crossingProbeBound)
		}
		if !(x > lo && x < hi) {
			t.Fatalf("%s: probe %v outside (%v, %v)", label, x, lo, hi)
		}
		return f(x)
	})
	if math.Float64bits(b)-math.Float64bits(a) != 1 {
		t.Fatalf("%s: (%v, %v) are not adjacent floats", label, a, b)
	}
	if !(f(a) > 0) || f(b) > 0 {
		t.Fatalf("%s: no crossing at (%v, %v): f = %v, %v", label, a, b, f(a), f(b))
	}
	return probes
}

// TestCrossingPairWorstCase feeds crossingPair predicates no game produces:
// for every one the search must terminate within its counted budget on an
// adjacent pair (a, b) with f(a) > 0 >= f(b), probing only inside the
// bracket.
func TestCrossingPairWorstCase(t *testing.T) {
	r := stats.NewRNG(17)
	maxBits := math.Float64bits(math.MaxFloat64)
	// crossings are the lattice points a of the pair (a, a+1): next to 0,
	// among the subnormals, next to MaxFloat64, and random.
	crossings := []uint64{0, 1, 2, 1 << 20, 1<<52 - 1, 1 << 52, maxBits - 1, maxBits - 2, math.Float64bits(1)}
	for i := 0; i < 200; i++ {
		crossings = append(crossings, r.Uint64()%maxBits)
	}
	runs, worst := 0, map[string]int{} // by kind of predicate
	run := func(label string, a uint64, f func(float64) float64) {
		// The whole lattice, and a random bracket around the crossing.
		brackets := [][2]uint64{{0, maxBits}, {a - r.Uint64()%(a+1), a + 1 + r.Uint64()%(maxBits-a)}}
		for _, br := range brackets {
			lo, hi := math.Float64frombits(br[0]), math.Float64frombits(br[1])
			if !(f(lo) > 0) || f(hi) > 0 {
				continue // sign noise reached an end: not a bracket
			}
			runs++
			n := checkCrossing(t, label, lo, hi, f)
			worst[label] = max(worst[label], n)
		}
	}
	for _, a := range crossings {
		off := func(x float64) float64 { return float64(int64(math.Float64bits(x) - a)) } // lattice offset from a
		// A bare step, with wildly different heights on its two sides.
		for _, h := range [][2]float64{{1, -1}, {1e300, -1e-300}, {5e-324, -1e300}, {1, 0}, {math.Inf(1), math.Inf(-1)}} {
			run("step", a, func(x float64) float64 {
				if off(x) <= 0 {
					return h[0]
				}
				return h[1]
			})
		}
		// A linear ramp with a plateau of exact zeros right of the crossing.
		for _, width := range []uint64{1, 2, 3, 1 << 10, 1 << 20} {
			run("plateau", a, func(x float64) float64 {
				switch d := off(x); {
				case d <= 0:
					return 1 - d
				case d <= float64(width):
					return 0
				default:
					return float64(width) - d
				}
			})
		}
		// A ramp whose sign is noise within ±k ulps of a.
		for _, k := range []float64{1, 4, 64, 1 << 20} {
			salt := r.Uint64()
			run("noise", a, func(x float64) float64 {
				d := off(x)
				if math.Abs(d) <= k && (math.Float64bits(x)^salt)*0x9E3779B97F4A7C15>>63 == 1 {
					return d + 0.5
				}
				return 0.5 - d
			})
		}
		// A ramp that turns +Inf below and NaN / -Inf above the crossing.
		for _, above := range []float64{math.NaN(), math.Inf(-1)} {
			m := float64(r.Uint64() % 1000)
			run("nonfinite", a, func(x float64) float64 {
				switch d := off(x); {
				case d < -m:
					return math.Inf(1)
				case d > m+1:
					return above
				default:
					return 0.5 - d
				}
			})
		}
	}
	t.Logf("%d searches, worst-case probes %v", runs, worst)
}

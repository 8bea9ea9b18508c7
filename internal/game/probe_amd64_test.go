package game

import (
	"fmt"
	"math"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// requireVectorProbe skips, naming AVX2, on a host where the spend kernel
// cannot run, and fails where the CPU has AVX2 but the dispatch still takes
// none of a plain range to the kernel: a silent fallback to the Go loop would
// otherwise pass every comparison below.
func requireVectorProbe(t testing.TB) {
	t.Helper()
	if !tensor.HasAVX2 {
		t.Skip("vector spend probe not exercised: the CPU lacks AVX2 or the OS does not save YMM state")
	}
	one := []float64{1, 1, 1, 1, 1, 1, 1}
	if n, _ := spendVector(make([]float64, 7), one, one, one, make([]float64, 7), nil, 2, 0.5, 4, 0); n != 4 {
		t.Fatalf("the CPU has AVX2, but the dispatch took %d of 7 clients to the vector kernel, want 4", n)
	}
}

// kernelCbrt returns Cbrt of every x (len(xs) a multiple of 4) as the spend
// kernel computes it: coef = x at u = 1 and v = 0 makes its x the input, an
// unbounded box leaves y unclamped, and c = gain = 0 makes every term 0. It
// fails the test unless the kernel finished every group.
func kernelCbrt(t *testing.T, xs []float64) []float64 {
	t.Helper()
	n := len(xs)
	q, zero := make([]float64, n), make([]float64, n)
	done, spend := spendVector(q, xs, zero, zero, zero, nil, 1, 0, math.Inf(1), 0)
	if done != n || spend != 0 {
		t.Fatalf("kernel finished %d of %d inputs with spend %v, want all with 0", done, n, spend)
	}
	return q
}

// cbrtEstimate is math.Cbrt's first stage for a positive normal x: the
// integer start and the rational step to 23 bits, the value Cbrt then chops
// to 22 bits before its Newton step. It only picks test inputs; the oracle
// is math.Cbrt.
func cbrtEstimate(x float64) float64 {
	const (
		B1 = 715094163
		C  = 5.42857142857142815906e-01
		D  = -7.05306122448979611050e-01
		E  = 1.41428571428571436819e+00
		F  = 1.60714285714285720630e+00
		G  = 3.57142857142857150787e-01
	)
	t := math.Float64frombits(math.Float64bits(x)/3 + B1<<32)
	r := t * t / x
	s := C + r*t
	return t * (G + F/(s+E+D/s))
}

// chopBoundaryInputs returns inputs whose 23-bit estimate lies within two
// ulps of a boundary of the 22-bit chop. Random inputs almost never do (one
// in 2^28), yet only there does a one-ulp slip anywhere before the chop — in
// the integer start's carry, in the order of s + E + D/s — move the Newton
// step's start and so the result. From each of seeds random x in [1, 8) a
// few secant steps walk the estimate onto a boundary, and the x within 48
// ulps whose estimate is that close are kept, each scaled by a random 8^k,
// which scales every step of Cbrt exactly, to reach every exponent.
func chopBoundaryInputs(r *stats.RNG, seeds int) []float64 {
	const chop = 1 << 30              // ulps between chop boundaries
	offset := func(t float64) int64 { // t's signed distance in ulps from the nearest boundary
		low := int64(math.Float64bits(t) % chop)
		if low >= chop/2 {
			low -= chop
		}
		return low
	}
	var xs []float64
	for i := 0; i < seeds; i++ {
		x := 1 + 7*r.Float64()
		for step := 0; step < 3; step++ {
			t := cbrtEstimate(x)
			ulp := math.Nextafter(t, math.Inf(1)) - t
			x -= float64(offset(t)) * ulp * 3 * x / t // d cbrt(x)/dx = t/(3x)
		}
		k := 3 * (int(r.Uint64()%681) - 340)
		for j := int64(-48); j <= 48; j++ {
			xj := math.Float64frombits(uint64(int64(math.Float64bits(x)) + j))
			if d := offset(cbrtEstimate(xj)); -2 <= d && d <= 2 {
				xs = append(xs, math.Ldexp(xj, k))
			}
		}
	}
	return xs
}

// TestCbrtKernelMatchesMathCbrt holds the kernel's cube root to math.Cbrt
// itself, not to a copy of it, bit for bit: a Go release that changes
// math.Cbrt fails here before any golden moves. The inputs are 2^20 random
// doubles spread evenly over every normal exponent, every pair (h mod 3,
// l mod 3) of the integer start's /3 with the low word l near 0 and near
// 2^32 − 1, inputs on the 22-bit chop's boundaries (chopBoundaryInputs),
// and every power of two from 2^-1022 up to MaxFloat64.
func TestCbrtKernelMatchesMathCbrt(t *testing.T) {
	requireVectorProbe(t)
	const fracMask = 1<<52 - 1
	var xs []float64
	r := stats.NewRNG(0xCB27)
	for i := 0; i < 1<<20; i++ {
		exp := uint64(1 + i%2046)
		xs = append(xs, math.Float64frombits(exp<<52|r.Uint64()&fracMask))
	}
	for _, exp := range []uint64{1, 2, 3, 511, 1022, 1023, 1024, 1535, 2044, 2045, 2046} {
		for dh := uint64(0); dh < 3; dh++ {
			h := exp<<20 | (r.Uint64()&(1<<20-1))&^3 | dh // h mod 3 takes every value as dh does
			for _, l := range []uint64{0, 1, 2, 3, 4, 5, 1<<32 - 6, 1<<32 - 5, 1<<32 - 4, 1<<32 - 3, 1<<32 - 2, 1<<32 - 1} {
				xs = append(xs, math.Float64frombits(h<<32|l))
			}
		}
	}
	xs = append(xs, chopBoundaryInputs(r, 2000)...)
	for e := -1022; e <= 1023; e++ {
		xs = append(xs, math.Ldexp(1, e))
	}
	xs = append(xs, 0x1p-1022, math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), math.Nextafter(0x1p-1022, 1))
	for len(xs)%4 != 0 {
		xs = append(xs, 1)
	}

	got := kernelCbrt(t, xs)
	mismatches := 0
	for i, x := range xs {
		if want := math.Cbrt(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("Cbrt(%v = %#016x) = %#016x, want math.Cbrt's %#016x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d inputs differ from math.Cbrt", mismatches, len(xs))
	}
}

// probeTiers runs probeRange over [lo, hi) on both tiers — the kernel where
// it can, then with tensor.HasAVX2 false — and fails the test unless the
// spend, every q and, with terms, every stored term are the same bits.
func probeTiers(t *testing.T, label string, s *Solver, p *Params, lambda float64, lo, hi int, withTerms bool) {
	t.Helper()
	var vecTerms, goTerms []float64
	if withTerms {
		vecTerms, goTerms = make([]float64, hi-lo), make([]float64, hi-lo)
	}
	vecSpend := s.probeRange(p, lambda, lo, hi, vecTerms)
	vecQ := append([]float64(nil), s.q[lo:hi]...)

	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	for i := range s.q {
		s.q[i] = math.NaN() // nothing of the vector run may survive into the comparison
	}
	goSpend := s.probeRange(p, lambda, lo, hi, goTerms)

	label = fmt.Sprintf("%s λ=%v [%d,%d) terms=%v", label, lambda, lo, hi, withTerms)
	if math.Float64bits(vecSpend) != math.Float64bits(goSpend) {
		t.Fatalf("%s: spend %v (%#016x), Go loop %v (%#016x)", label, vecSpend, math.Float64bits(vecSpend), goSpend, math.Float64bits(goSpend))
	}
	sameQ(t, label+": q", vecQ, s.q[lo:hi])
	sameQ(t, label+": terms", vecTerms, goTerms)
}

// kernelDone is how many clients of [lo, hi) the kernel finishes at lambda.
func kernelDone(s *Solver, p *Params, lambda float64, lo, hi int) int {
	done, _ := spendVector(s.q[lo:hi], s.coef[lo:hi], s.gain[lo:hi], p.C[lo:hi], p.V[lo:hi], nil, 1/lambda, p.QMin, p.QMax, 0)
	return done
}

// bareProbe is a Solver and Params holding only what probeRange reads, set
// from per-client rows; the box need not pass Validate.
func bareProbe(coef, gain, c, v []float64, qMin, qMax float64) (*Solver, *Params) {
	s := &Solver{q: make([]float64, len(coef)), coef: coef, gain: gain}
	return s, &Params{C: c, V: v, QMin: qMin, QMax: qMax}
}

// TestSpendKernelMatchesPortable holds the vector spend probe to the Go loop
// (tensor.HasAVX2 false): spend, every q and every stored term equal bit for
// bit, with and without terms, at λ = 0, at both ends of the budget crossing
// and at seeded λ around it, on games with a ragged tail of each length, on
// index ranges that start and end off a group boundary, on groups mixing
// slack ≤ 0 with slack > 0, on clamps at both ends of the box (and of an
// inverted one, which fixes the order of the two clamps), and on one
// declined group each for a subnormal x, an x of +Inf, a NaN v and a NaN
// term, after which the rest of the range runs on the Go loop. Every range
// the kernel can finish, it must finish.
func TestSpendKernelMatchesPortable(t *testing.T) {
	requireVectorProbe(t)

	var mixed, clampHi bool
	for _, g := range []struct {
		name string
		p    *Params
	}{
		{"n%4=0", engineGame(t, 31, 256)},
		{"n%4=1", engineGame(t, 32, 257)},
		{"n%4=2", quoteColdGame(33, 258)},
		{"n%4=3", lognormalGame(34, 259)},
	} {
		s := NewSolver()
		var eq Equilibrium
		if err := s.SolveInto(g.p, &eq); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !eq.BudgetTight {
			t.Fatalf("%s: test bug: the budget is slack", g.name)
		}
		n := g.p.N()
		r := stats.NewRNG(uint64(n))
		lambdas := []float64{0, eq.Lambda, math.Nextafter(eq.Lambda, 0)}
		for i := 0; i < 8; i++ {
			lambdas = append(lambdas, eq.Lambda*math.Pow(10, 6*r.Float64()-3))
		}
		for _, lambda := range lambdas {
			for _, span := range [][2]int{{0, n}, {3, n - 2}} {
				lo, hi := span[0], span[1]
				if lambda > 0 {
					if done := kernelDone(s, g.p, lambda, lo, hi); done != (hi-lo)&^3 {
						t.Fatalf("%s λ=%v [%d,%d): the kernel finished %d clients, want %d", g.name, lambda, lo, hi, done, (hi-lo)&^3)
					}
				}
				probeTiers(t, g.name, s, g.p, lambda, lo, hi, false)
				probeTiers(t, g.name, s, g.p, lambda, lo, hi, true)
			}
			if lambda <= 0 {
				continue
			}
			for i := 0; i+4 <= n; i += 4 {
				var below, above bool
				for j := i; j < i+4; j++ {
					slack := 1/lambda - g.p.V[j]
					below = below || slack <= 0
					above = above || slack > 0
					clampHi = clampHi || slack > 0 && cbrt(s.coef[j]*slack) > g.p.QMax
				}
				mixed = mixed || below && above
			}
		}
	}
	if !mixed || !clampHi {
		t.Fatalf("test bug: the seeded games cover mixed groups %v, clamps at QMax %v", mixed, clampHi)
	}

	// Edge layouts at λ = 1 (u = 1, so slack = 1 − v), 19 clients: four whole
	// groups and a tail of three. The base client has x = coef = 0.125,
	// q = 0.5, inside the box.
	const n, lambda = 19, 1.0
	layout := func(edit func(coef, gain, c, v []float64)) (*Solver, *Params) {
		coef, gain, c, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range coef {
			coef[i], gain[i], c[i], v[i] = 0.125, 0.01*float64(i+1), 1+float64(i), 0
		}
		edit(coef, gain, c, v)
		return bareProbe(coef, gain, c, v, DefaultQMin, 1)
	}
	edges := []struct {
		name string
		edit func(coef, gain, c, v []float64)
		box  [2]float64 // QMin, QMax; zero means the layout's
		done int        // clients the kernel must finish
	}{
		{"mixed slack", func(coef, gain, c, v []float64) {
			// Slack −1, 0.5, 0 and 2^-53 (x clamps to QMin); then −Inf with
			// coef 0 (x NaN), 4, 0 (x zero) and 1: a NaN or zero x where
			// slack ≤ 0 declines nothing.
			copy(v[4:], []float64{2, 0.5, 1, math.Nextafter(1, 0), math.Inf(1), -3, 1, 0})
			coef[8] = 0
		}, [2]float64{}, 16},
		{"clamps at both ends", func(coef, gain, c, v []float64) {
			copy(coef[4:], []float64{8, 1e-12, 1, 1e-9, 1e300, math.SmallestNonzeroFloat64 * (1 << 60), 0.999999, 1.000001})
		}, [2]float64{}, 16},
		{"inverted box", func(coef, gain, c, v []float64) {
			copy(coef[4:], []float64{0.027, 0.216, 0.001, 0.125, 1, 0.064, 0.343, 8})
		}, [2]float64{0.5, 0.25}, 16},
		{"subnormal x", func(coef, gain, c, v []float64) { coef[9] = 1e-310 }, [2]float64{}, 8},
		{"x of +Inf", func(coef, gain, c, v []float64) { coef[10], v[10] = math.MaxFloat64, -1 }, [2]float64{}, 8},
		{"NaN v", func(coef, gain, c, v []float64) { v[11] = math.NaN() }, [2]float64{}, 8},
		{"NaN term", func(coef, gain, c, v []float64) { c[8], gain[8] = math.Inf(1), math.Inf(1) }, [2]float64{}, 8},
		{"declined first group", func(coef, gain, c, v []float64) { coef[0] = 1e-320 }, [2]float64{}, 0},
		{"declined last whole group", func(coef, gain, c, v []float64) { coef[15] = math.Inf(1) }, [2]float64{}, 12},
	}
	for _, e := range edges {
		s, p := layout(e.edit)
		if e.box != [2]float64{} {
			p.QMin, p.QMax = e.box[0], e.box[1]
		}
		if done := kernelDone(s, p, lambda, 0, n); done != e.done {
			t.Fatalf("%s: the kernel finished %d clients, want %d", e.name, done, e.done)
		}
		for _, l := range []float64{0, lambda, 0.75} {
			for _, withTerms := range []bool{false, true} {
				probeTiers(t, e.name, s, p, l, 0, n, withTerms)
				probeTiers(t, e.name, s, p, l, 1, n, withTerms)
			}
		}
	}
}

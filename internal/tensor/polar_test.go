package tensor

import (
	"fmt"
	"math"
	"testing"

	"unbiasedfl/internal/testutil"
)

// polarS lists the s values PolarScale is held to its Go loop on: the
// least s a polar draw can accept (2⁻¹⁰⁴, from u = 2⁻⁵², v = 0), the
// greatest below 1, both sides of √2/2 where Log doubles f1, every power of
// two down to the least normal number, and a spread of values between.
func polarS(r *kernelRNG) []float64 {
	s := []float64{
		0x1p-104, math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
		math.Nextafter(math.Sqrt2/2, 0), math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 1),
		0x1p-1022, math.Nextafter(0x1p-1022, 1), 0x1p-1021,
	}
	for e := 1; e <= 1022; e++ {
		s = append(s, math.Ldexp(1, -e))
	}
	for i := 0; i < 4000; i++ {
		s = append(s, (r.next()+1)/2*math.Ldexp(1, -int(8*(r.next()+1))))
	}
	out := s[:0]
	for _, v := range s {
		if v > 0 && v < 1 {
			out = append(out, v)
		}
	}
	return out
}

// polarU draws u values: mostly uniform on (−1, 1) as the polar method
// draws them, with signed zeros, infinities, a NaN and a large value mixed
// in.
func polarU(r *kernelRNG, n int) []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, 0x1p1000}
	u := make([]float64, n)
	for i := range u {
		u[i] = r.next()
		if i%37 == 5 {
			u[i] = edges[(i/37)%len(edges)]
		}
	}
	return u
}

// checkPolarScale runs PolarScale on u and s carved out of guard words and
// fails t on any bit that differs from the Go loop's or a disturbed
// neighbour. It returns how many elements the vector kernel took.
func checkPolarScale(t *testing.T, u, s []float64, toEnd bool) int {
	t.Helper()
	want := Vec(u).Clone()
	polarScalePortable(want, s)
	cu, gu := testutil.Carve(len(u), toEnd, guard)
	cs, gs := testutil.Carve(len(s), !toEnd, guard)
	copy(cu, u)
	copy(cs, s)
	taken := polarScaleVector(Vec(u).Clone(), s)
	if err := PolarScale(cu, cs); err != nil {
		t.Fatal(err)
	}
	if i, ok := identicalBits(cu, want); !ok {
		t.Fatalf("u=%v s=%v: got %v (%#x), Go loop %v (%#x)",
			u[i], s[i], cu[i], math.Float64bits(cu[i]), want[i], math.Float64bits(want[i]))
	}
	if i, ok := identicalBits(cs, s); !ok {
		t.Fatalf("PolarScale changed s[%d]", i)
	}
	if !gu.Intact() || !gs.Intact() {
		t.Fatal("PolarScale wrote outside u or s")
	}
	return taken
}

// TestPolarScaleMatchesPortable holds PolarScale to its Go loop bit for bit
// on every polarS value, each in every lane position, in slices of every
// length up to 70 and one of all of them, on both tiers; on the vector tier
// the kernel must take every whole group of four.
func TestPolarScaleMatchesPortable(t *testing.T) {
	for _, vector := range []bool{true, false} {
		t.Run(fmt.Sprintf("vector=%t", vector), func(t *testing.T) {
			if vector {
				skipWithoutAVX2(t)
			} else {
				declineVector(t)
			}
			r := &kernelRNG{s: 31}
			s := polarS(r)
			u := polarU(r, len(s))
			check := func(u, s []float64, toEnd bool) {
				want := 0
				if vector {
					want = len(u) &^ 3
				}
				if took := checkPolarScale(t, u, s, toEnd); took != want {
					t.Fatalf("%d elements: the kernel took %d, want %d", len(u), took, want)
				}
			}
			for shift := 0; shift < 4; shift++ {
				check(u[shift:], s[shift:], shift%2 == 0)
			}
			for n := 0; n <= 70; n++ {
				lo := (17 * n) % (len(s) - n)
				check(u[lo:lo+n], s[lo:lo+n], n%2 == 1)
			}
		})
	}
	if err := PolarScale(NewVec(3), NewVec(4)); err == nil {
		t.Fatal("PolarScale accepted an s of another length")
	}
}

// TestPolarScaleDeclines puts each s outside [2⁻¹⁰²², 1) — zero of either
// sign, a subnormal, a negative, NaN, ±Inf and 1 — in every lane of every
// group of a 14-element slice: the kernel must stop at that group, and the
// results must still be the Go loop's, bit for bit.
func TestPolarScaleDeclines(t *testing.T) {
	skipWithoutAVX2(t)
	declined := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Nextafter(0x1p-1022, 0),
		-0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1, math.Nextafter(1, 2),
	}
	r := &kernelRNG{s: 32}
	const n = 14
	for _, bad := range declined {
		for at := 0; at < n&^3; at++ {
			s := make([]float64, n)
			for i := range s {
				s[i] = (r.next() + 1) / 2
			}
			s[at] = bad
			if took, want := checkPolarScale(t, polarU(r, n), s, at%2 == 0), at&^3; took != want {
				t.Fatalf("s=%v at %d: the kernel took %d elements, want %d", bad, at, took, want)
			}
		}
	}
}

// BenchmarkPolarScale times the transform of a 64-value chunk of polar
// draws, on both tiers.
func BenchmarkPolarScale(b *testing.B) {
	r := &kernelRNG{s: 33}
	src, s := NewVec(64), NewVec(64)
	for i := range src {
		for s[i] == 0 || s[i] >= 1 {
			src[i] = r.next()
			v := r.next()
			s[i] = float64(src[i]*src[i]) + float64(v*v)
		}
	}
	u := NewVec(64)
	tiers(b, "64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(u, src)
			_ = PolarScale(u, s)
		}
		reportPerElement(b, len(u))
	})
}

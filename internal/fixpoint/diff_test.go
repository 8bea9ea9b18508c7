package fixpoint

import (
	"fmt"
	"math"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
)

// twoPass is the fold AddScaledDiff replaces, written out with the
// float-library quantizer: the delta d = w − g is materialised, scaled in
// place by factor (tensor.Vec.Scale, what a poisoner did to its delta), and
// each fl(scale·d[j]) is quantized by fixQuantizeRef and added with carry.
func twoPass(scale, factor float64, w, g tensor.Vec, lo, hi []uint64) bool {
	d := make(tensor.Vec, len(w))
	for j := range d {
		d[j] = w[j] - g[j]
	}
	d.Scale(factor)
	return refFold(lo, hi, func(j int) float64 { return scale * d[j] })
}

// mutantScaleFactorFirst rounds scale·factor before it meets the difference:
// fl(fl(scale·factor)·fl(w − g)). The kit must tell it from the contract.
func mutantScaleFactorFirst(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) bool {
	sf := scale * factor
	return refFoldDigits(d0, d1, d2, func(j int) float64 { return sf * float64(w[j]-g[j]) })
}

// mutantSubtractLast multiplies first and subtracts after:
// fl(fl(scale·fl(factor·w)) − fl(scale·fl(factor·g))). The kit must tell it
// from the contract.
func mutantSubtractLast(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) bool {
	return refFoldDigits(d0, d1, d2, func(j int) float64 {
		return float64(scale*float64(factor*w[j])) - float64(scale*float64(factor*g[j]))
	})
}

// refFold adds the reference quantization of addend(j) to lo[j]:hi[j] for
// each j, skipping and reporting an addend that saturates.
func refFold(lo, hi []uint64, addend func(j int) float64) (sat bool) {
	for j := range lo {
		qlo, qhi, ok := fixQuantizeRef(addend(j))
		if !ok {
			sat = true
			continue
		}
		lo[j], hi[j] = add128(lo[j], hi[j], qlo, qhi)
	}
	return sat
}

// refFoldDigits is refFold onto digit rows: each reference quantization goes
// in as MergeLimbs takes limbs.
func refFoldDigits(d0, d1, d2 []int64, addend func(j int) float64) (sat bool) {
	for j := range d0 {
		qlo, qhi, ok := fixQuantizeRef(addend(j))
		if !ok {
			sat = true
			continue
		}
		d0[j] += int64(qlo & (1<<32 - 1))
		d1[j] += int64(qlo >> 32)
		d2[j] += int64(qhi)
	}
	return sat
}

// diffKitShapes and diffKitFactors are the kit's grid: lengths below, at and
// past one vector block with every tail size, and the two model sizes the
// engine folds; factors that are honest, sign-flipping, doubling, suppressing
// and inexact.
var (
	diffKitShapes  = []int{1, 3, 4, 7, 610, 1690}
	diffKitFactors = []float64{1, -1, -2, 0, 2.5}
)

// diffKitPairs are the (w, g) pairs placed among random ones: NaN and ±Inf on
// either side (Inf − Inf is NaN), subnormals and a subnormal difference, w = g
// (an exact +0, −0 included), and differences at, just inside and just past
// the 2^23 cap.
func diffKitPairs() [][2]float64 {
	sub := math.SmallestNonzeroFloat64
	capv := float64(fixMaxAddend)
	return [][2]float64{
		{math.NaN(), 0}, {0.5, math.NaN()}, {-math.NaN(), -math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(1)}, {math.Inf(1), math.Inf(1)}, {math.Inf(-1), 2},
		{sub, 0}, {0, sub}, {3 * sub, sub}, {0x1p-1022, math.Nextafter(0x1p-1022, 0)},
		{1e-300, 1e-300}, {0.25, 0.25}, {math.Copysign(0, -1), math.Copysign(0, -1)}, {-7, -7},
		{capv, 0}, {capv / 2, -capv / 2}, {0, -capv}, {math.Nextafter(capv, 0), 0},
		{math.Nextafter(capv, math.Inf(1)), 0}, {capv, -1}, {capv / 4, -capv / 8},
	}
}

// diffKit runs fold over the kit — every shape × factor, three scales (1, so
// the edges arrive intact, and two that round), random and edge (w, g) pairs —
// onto digits pre-filled with sums of both signs, every slice carved inside
// guard words. Each result is held to the Go loop digit for digit and, by
// its normalised limbs and saturation verdict, to the two-pass reference; w
// and g must come back untouched and nothing outside the slices may change.
// It returns the first disagreement, or "".
func diffKit(fold foldFunc) string {
	rng := stats.NewRNG(37)
	pairs := diffKitPairs()
	for _, p := range diffKitShapes {
		for _, factor := range diffKitFactors {
			for k, scale := range []float64{1, 0.37 * math.Exp(rng.Float64()), -1.3e-5 * (1 + rng.Float64())} {
				w, wCarved := testutil.Carve(p, k == 1, guardFloat)
				g, gCarved := testutil.Carve(p, k == 2, guardFloat)
				var d, goD [3][]int64
				var dCarved [3]testutil.Carved[int64]
				for i := range d {
					d[i], dCarved[i] = testutil.Carve(p, k == i, guardDigit)
				}
				for j := range w {
					w[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(50)-40)
					g[j] = w[j] + (rng.Float64()-0.5)*math.Ldexp(1, rng.Intn(40)-40)
					if rng.Bernoulli(0.1) {
						g[j] = 0
					}
					d[0][j], d[1][j], d[2][j] = randomDigits(rng)
				}
				// One edge pair per parameter of the small shapes, a scatter of
				// them through the large ones.
				for e := 0; e < len(pairs) && e < p; e++ {
					j := e
					if p > 64 {
						j = rng.Intn(p)
					}
					w[j], g[j] = pairs[(e+k)%len(pairs)][0], pairs[(e+k)%len(pairs)][1]
				}
				wBefore, gBefore := tensor.Vec(w).Clone(), tensor.Vec(g).Clone()
				for i := range goD {
					goD[i] = append([]int64(nil), d[i]...)
				}
				refLo, refHi := make([]uint64, p), make([]uint64, p)
				for j := range refLo {
					refLo[j], refHi[j] = bigLimbs(d[0][j], d[1][j], d[2][j])
				}
				goSat := addScaledDiffPortable(scale, factor, w, g, goD[0], goD[1], goD[2])
				refSat := twoPass(scale, factor, w, g, refLo, refHi)
				sat := fold(scale, factor, w, g, d[0], d[1], d[2])
				at := fmt.Sprintf("p=%d factor=%v scale=%v", p, factor, scale)
				if sat != goSat || sat != refSat {
					return fmt.Sprintf("%s: sat = %v, Go loop %v, two-pass %v", at, sat, goSat, refSat)
				}
				for j := range w {
					lo, hi := limbs(d[0][j], d[1][j], d[2][j])
					if lo != refLo[j] || hi != refHi[j] {
						return fmt.Sprintf("%s, parameter %d (w %v, g %v): limbs %#016x:%016x, two-pass %#016x:%016x",
							at, j, w[j], g[j], hi, lo, refHi[j], refLo[j])
					}
					for i := range d {
						if d[i][j] != goD[i][j] {
							return fmt.Sprintf("%s, parameter %d (w %v, g %v): digit %d %#x, Go loop %#x",
								at, j, w[j], g[j], i, d[i][j], goD[i][j])
						}
					}
					if math.Float64bits(w[j]) != math.Float64bits(wBefore[j]) || math.Float64bits(g[j]) != math.Float64bits(gBefore[j]) {
						return fmt.Sprintf("%s: the fold changed w[%d] or g[%d]", at, j, j)
					}
				}
				if !wCarved.Intact() || !gCarved.Intact() || !dCarved[0].Intact() || !dCarved[1].Intact() || !dCarved[2].Intact() {
					return fmt.Sprintf("%s: the fold wrote outside its slices (w %v, g %v, d0 %v, d1 %v, d2 %v intact)",
						at, wCarved.Intact(), gCarved.Intact(), dCarved[0].Intact(), dCarved[1].Intact(), dCarved[2].Intact())
				}
			}
		}
	}
	return ""
}

// TestAddScaledDiffMatchesTwoPass is the one-pass fold's kit: on both tiers
// AddScaledDiff equals, by bits, the Go loop and the two-pass fold it
// replaced (materialise w − g, scale it by factor, fold it at scale); the
// public two-pass through AddScaled agrees; and two hand mutants of the
// operation order — scale·factor rounded first, the subtraction moved after
// the multiplies — are caught, which is what shows the kit can see order.
func TestAddScaledDiffMatchesTwoPass(t *testing.T) {
	t.Run("portable", func(t *testing.T) {
		if msg := diffKit(addScaledDiffPortable); msg != "" {
			t.Fatal(msg)
		}
	})
	t.Run("vector", func(t *testing.T) {
		requireVectorTier(t)
		if msg := diffKit(dispatched); msg != "" {
			t.Fatal(msg)
		}
	})
	t.Run("public-two-pass", func(t *testing.T) {
		rng := stats.NewRNG(41)
		for _, p := range diffKitShapes {
			for _, factor := range diffKitFactors {
				w, g := tensor.NewVec(p), tensor.NewVec(p)
				for j := range w {
					w[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(50)-40)
					g[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(50)-40)
				}
				d := tensor.NewVec(p)
				for j := range d {
					d[j] = w[j] - g[j]
				}
				d.Scale(factor)
				one, two := New(p), New(p)
				if err := one.AddScaledDiff(0.37, factor, w, g); err != nil {
					t.Fatal(err)
				}
				if err := two.AddScaled(0.37, d); err != nil {
					t.Fatal(err)
				}
				oneLo, oneHi, _ := one.Limbs()
				twoLo, twoHi, _ := two.Limbs()
				for j := range oneLo {
					if oneLo[j] != twoLo[j] || oneHi[j] != twoHi[j] {
						t.Fatalf("p=%d factor=%v, parameter %d: AddScaledDiff %#016x:%016x, AddScaled of the scaled delta %#016x:%016x",
							p, factor, j, oneHi[j], oneLo[j], twoHi[j], twoLo[j])
					}
				}
			}
		}
		if err := New(3).AddScaledDiff(1, 1, tensor.NewVec(3), tensor.NewVec(4)); err == nil {
			t.Fatal("AddScaledDiff accepted a g of the wrong length")
		}
		if err := New(3).AddScaledDiff(1, 1, tensor.NewVec(2), tensor.NewVec(3)); err == nil {
			t.Fatal("AddScaledDiff accepted a w of the wrong length")
		}
	})
	for name, mutant := range map[string]foldFunc{
		"mutant-scale-factor-first": mutantScaleFactorFirst,
		"mutant-subtract-last":      mutantSubtractLast,
	} {
		t.Run(name, func(t *testing.T) {
			if diffKit(mutant) == "" {
				t.Fatal("the kit passed a fold with the wrong operation order")
			}
		})
	}
}

// FuzzAddScaledDiffMatchesTwoPass hands the fuzzer scale, factor, w and g as
// bits. The block it checks is five parameters — one vector block and a
// one-parameter tail — holding the pair, the pair swapped, w against +0, the
// pair with w's last bit flipped, and g against itself, onto the prefill
// digits carved inside guard words. Both tiers' normalised limbs are held to
// the two-pass reference; without a vector tier the exec reports itself
// skipped after the Go loop's check.
func FuzzAddScaledDiffMatchesTwoPass(f *testing.F) {
	for _, p := range diffKitPairs() {
		for _, factor := range diffKitFactors {
			f.Add(math.Float64bits(1), math.Float64bits(factor), math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	f.Add(math.Float64bits(0.37), math.Float64bits(2.5), math.Float64bits(0.1), math.Float64bits(0.3))
	f.Fuzz(func(t *testing.T, sb, fb, wb, gb uint64) {
		scale, factor := math.Float64frombits(sb), math.Float64frombits(fb)
		x, y := math.Float64frombits(wb), math.Float64frombits(gb)
		w := tensor.Vec{x, y, x, math.Float64frombits(wb ^ 1), y}
		g := tensor.Vec{y, x, 0, y, y}
		check := func(name string, fold foldFunc) {
			var d [3][]int64
			var carved [3]testutil.Carved[int64]
			for i := range d {
				d[i], carved[i] = testutil.Carve(len(w), i == 1, guardDigit)
			}
			refLo, refHi := make([]uint64, len(w)), make([]uint64, len(w))
			for j := range w {
				for i := range d {
					d[i][j] = prefill[j&3][i]
				}
				refLo[j], refHi[j] = prefillLimbs[j&3][0], prefillLimbs[j&3][1]
			}
			refSat := twoPass(scale, factor, w, g, refLo, refHi)
			if sat := fold(scale, factor, w, g, d[0], d[1], d[2]); sat != refSat {
				t.Fatalf("%s: scale %v factor %v w %v g %v: sat = %v, two-pass %v", name, scale, factor, w, g, sat, refSat)
			}
			for j := range w {
				if lo, hi := limbs(d[0][j], d[1][j], d[2][j]); lo != refLo[j] || hi != refHi[j] {
					t.Fatalf("%s: scale %v factor %v, parameter %d (w %v, g %v): limbs %#016x:%016x, two-pass %#016x:%016x",
						name, scale, factor, j, w[j], g[j], hi, lo, refHi[j], refLo[j])
				}
			}
			if !carved[0].Intact() || !carved[1].Intact() || !carved[2].Intact() {
				t.Fatalf("%s: the fold wrote outside its digit rows", name)
			}
		}
		check("portable", addScaledDiffPortable)
		requireVectorTier(t)
		check("vector", dispatched)
	})
}

// BenchmarkAddScaledDiff folds a rotation of 32 trained models against one
// global in one pass, beside the two passes it replaced: write the delta
// w − g into a buffer, then AddScaled it.
func BenchmarkAddScaledDiff(b *testing.B) {
	for _, size := range benchSizes {
		ws := make([]tensor.Vec, 32)
		for i := range ws {
			ws[i] = benchDelta(size.p, 0.37, uint64(i+1))
		}
		g, delta := benchDelta(size.p, 0.37, 99), tensor.NewVec(size.p)
		a := New(size.p)
		for _, pass := range []struct {
			name string
			fold func(w tensor.Vec) error
		}{
			{size.name, func(w tensor.Vec) error { return a.AddScaledDiff(0.37, 1, w, g) }},
			{size.name + "-two-pass", func(w tensor.Vec) error {
				for j := range delta {
					delta[j] = w[j] - g[j]
				}
				return a.AddScaled(0.37, delta)
			}},
		} {
			b.Run(pass.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := pass.fold(ws[i%len(ws)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.p), "ns/param")
			})
		}
	}
}

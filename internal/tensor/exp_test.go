package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"unbiasedfl/internal/testutil"
)

// ulps is the distance between a and b counted in representable float64s
// (0 for equal values, ±0 included).
func ulps(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		u := math.Float64bits(x)
		if u>>63 != 0 {
			return -int64(u &^ (1 << 63))
		}
		return int64(u)
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		return uint64(-d)
	}
	return uint64(d)
}

// bigPrec is the working precision of the math/big references: far more
// than enough that rounding their result to float64 is correct rounding.
const bigPrec = 256

var ln2Big = sync.OnceValue(func() *big.Float {
	// ln 2 = Σ_{k≥1} 1/(k·2^k).
	const prec = bigPrec + 64
	one, sum := big.NewFloat(1), new(big.Float).SetPrec(prec)
	for k := 1; k < prec; k++ {
		den := new(big.Float).SetInt64(int64(k))
		den.SetMantExp(den, k) // k·2^k, exactly
		sum.Add(sum, new(big.Float).SetPrec(prec).Quo(one, den))
	}
	return sum
})

func newBig() *big.Float { return new(big.Float).SetPrec(bigPrec) }

// bigExp returns e**x correctly rounded to float64 (x finite).
func bigExp(x float64) float64 {
	k := math.Round(x / math.Ln2)
	r := newBig().SetFloat64(x)
	r.Sub(r, newBig().Mul(newBig().SetFloat64(k), ln2Big()))
	sum, term := newBig().SetInt64(1), newBig().SetInt64(1)
	for i := int64(1); term.Sign() != 0 && term.MantExp(nil) > -bigPrec-8; i++ {
		term.Mul(term, r)
		term.Quo(term, newBig().SetInt64(i))
		sum.Add(sum, term)
	}
	f, _ := sum.SetMantExp(sum, int(k)).Float64()
	return f
}

// bigLog returns the natural logarithm of x correctly rounded to float64
// (x finite and positive).
func bigLog(x float64) float64 {
	frac, e := math.Frexp(x) // x = frac·2^e, frac in [1/2, 1)
	m := newBig().SetFloat64(frac)
	if frac < math.Sqrt2/2 {
		m.SetMantExp(m, 1)
		e--
	}
	// log m = 2·atanh(z) = 2·Σ z^(2i+1)/(2i+1) with z = (m−1)/(m+1), |z| < 0.18.
	one := newBig().SetInt64(1)
	z := newBig().Quo(newBig().Sub(m, one), newBig().Add(m, one))
	z2 := newBig().Mul(z, z)
	sum, pow := newBig(), newBig().Set(z)
	for i := int64(0); pow.Sign() != 0 && pow.MantExp(nil) > -bigPrec-8; i++ {
		sum.Add(sum, newBig().Quo(pow, newBig().SetInt64(2*i+1)))
		pow.Mul(pow, z2)
	}
	sum.SetMantExp(sum, 1)
	sum.Add(sum, newBig().Mul(newBig().SetInt64(int64(e)), ln2Big()))
	f, _ := sum.Float64()
	return f
}

// expEdges are the inputs where Exp changes branch or the result changes
// range, with their neighbours, and the IEEE special values.
func expEdges() []float64 {
	var out []float64
	for _, x := range []float64{
		0, 0x1p-28, 1, expNormal, expOverflow, -expUnderflow, 745.2, 1000,
		math.Ln2 / 2, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
	} {
		for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return append(out, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0dead00000001))
}

func TestExpSpecialCases(t *testing.T) {
	for _, tc := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0}, {710, math.Inf(1)}, {-746, 0},
		{0, 1}, {math.Copysign(0, -1), 1}, {0x1p-30, 1 + 0x1p-30}, {1, math.E},
	} {
		if got := Exp(tc.x); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("Exp(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	nan := math.Float64frombits(0x7ff0dead00000001)
	if got := Exp(nan); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("Exp(NaN %#x) = %#x, want the NaN itself", math.Float64bits(nan), math.Float64bits(got))
	}
	for _, tc := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)}, {0, math.Inf(-1)}, {math.Copysign(0, -1), math.Inf(-1)},
		{1, 0}, {math.E, 1}, {2, math.Ln2},
	} {
		if got := Log(tc.x); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("Log(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	for _, x := range []float64{-1, math.Inf(-1), -math.SmallestNonzeroFloat64, math.NaN()} {
		if got := Log(x); !math.IsNaN(got) {
			t.Errorf("Log(%v) = %v, want NaN", x, got)
		}
	}
}

// TestExpAccuracy bounds Exp against the correctly rounded result (a math/big
// computation at 256 bits) and against the standard library: at most 1 ulp
// from the first and 2 from the second. The standard library is no closer to
// Exp than that: on amd64 its own algorithm differs from this one in about
// one input in six of the softmax range.
func TestExpAccuracy(t *testing.T) {
	r := &kernelRNG{s: 21}
	unit := func() float64 { return (r.next() + 1) / 2 }
	inputs := expEdges()
	for i := 0; i < 6000; i++ {
		inputs = append(inputs,
			-40*unit(), // the softmax range
			expUnderflow+(expOverflow-expUnderflow)*unit(), // everything with a finite, non-zero result
			r.next()*math.Ldexp(1, -int(60*unit())),        // around zero, across the 2^-28 switch
		)
	}
	for _, x := range inputs {
		got := Exp(x)
		if math.IsNaN(x) || math.IsInf(x, 0) || x > expOverflow || x < expUnderflow {
			if want := math.Exp(x); ulps(got, want) != 0 && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Exp(%v) = %v, math.Exp %v", x, got, want)
			}
			continue
		}
		if d := ulps(got, bigExp(x)); d > 1 {
			t.Fatalf("Exp(%v) = %v (%#x), %d ulp from the correctly rounded %v", x, got, math.Float64bits(got), d, bigExp(x))
		}
		if math.IsInf(math.Exp(x), 1) {
			continue // math.Exp on amd64 overflows at the last finite result
		}
		if d := ulps(got, math.Exp(x)); d > 2 {
			t.Fatalf("Exp(%v) = %v, %d ulp from math.Exp's %v", x, got, d, math.Exp(x))
		}
	}
	t.Logf("%d inputs: within 1 ulp of math/big", len(inputs))

	const softmaxRange = 1_000_000
	var worst, differ uint64
	for i := 0; i < softmaxRange; i++ {
		x := -40 * unit()
		d := ulps(Exp(x), math.Exp(x))
		if d > 2 {
			t.Fatalf("Exp(%v) = %v, %d ulp from math.Exp's %v", x, Exp(x), d, math.Exp(x))
		}
		worst = max(worst, d)
		if d != 0 {
			differ++
		}
	}
	t.Logf("%d inputs in [-40, 0]: %d differ from math.Exp, by at most %d ulp", softmaxRange, differ, worst)
}

// TestLogAccuracy is TestExpAccuracy for Log.
func TestLogAccuracy(t *testing.T) {
	r := &kernelRNG{s: 22}
	unit := func() float64 { return (r.next() + 1) / 2 }
	inputs := []float64{
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, math.E, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64,
	}
	for i := 0; i < 6000; i++ {
		inputs = append(inputs,
			math.Float64frombits(uint64(unit()*float64(math.Float64bits(math.MaxFloat64)))), // every binade
			1+r.next()*math.Ldexp(1, -int(50*unit())),                                       // around 1
			unit()*1e3, // sums of exponentials, as LogSumExp takes them
		)
	}
	var worst, differ uint64
	for _, x := range inputs {
		got := Log(x)
		if d := ulps(got, bigLog(x)); d > 1 {
			t.Fatalf("Log(%v) = %v, %d ulp from the correctly rounded %v", x, got, d, bigLog(x))
		}
		if x < 0x1p-1022 {
			continue // math.Log's amd64 assembly is wrong on subnormals: Log(5e-324) = −709.09
		}
		d := ulps(got, math.Log(x))
		if d > 2 {
			t.Fatalf("Log(%v) = %v, %d ulp from math.Log's %v", x, got, d, math.Log(x))
		}
		worst = max(worst, d)
		if d != 0 {
			differ++
		}
	}
	t.Logf("%d inputs against math/big: within 1 ulp; against math.Log: %d differ, by at most %d ulp", len(inputs), differ, worst)
}

// expValue draws an input for the vector differential: mostly the softmax
// range, the normal range and the neighbourhood of the 2^-28 switch to 1 + x,
// the rest edges and raw bit patterns.
func expValue(r *kernelRNG, edges []float64, special float64) float64 {
	unit := (r.next() + 1) / 2
	switch {
	case unit < special/2:
		return edges[int((r.next()+1)/2*float64(len(edges)))%len(edges)]
	case unit < special:
		r.next()
		return math.Float64frombits(r.s)
	case unit < 0.5:
		return -40 * (r.next() + 1) / 2
	case unit < 0.7:
		return math.Ldexp(r.next(), -25-int(7*(r.next()+1)/2))
	default:
		return 720 * r.next()
	}
}

// checkExpPass runs the dispatched exp pass over a carved copy of in and
// fails t unless every element has Exp's bits and nothing outside the slice
// moved. It returns how many elements sat in whole blocks the kernel takes.
func checkExpPass(t testing.TB, in []float64, toEnd bool) int {
	t.Helper()
	v, c := testutil.Carve(len(in), toEnd, guard)
	copy(v, in)
	expInPlace(v)
	for i, x := range in {
		if want := Exp(x); math.Float64bits(v[i]) != math.Float64bits(want) {
			t.Fatalf("len %d, element %d: Exp(%v = %#x) = %#x on the pass, %#x portable",
				len(in), i, x, math.Float64bits(x), math.Float64bits(v[i]), math.Float64bits(want))
		}
	}
	if !c.Intact() {
		t.Fatalf("len %d: the exp pass wrote outside its slice", len(in))
	}
	vectorised := 0
	for b := 0; b+4 <= len(in); b += 4 {
		inRange := true
		for _, x := range in[b : b+4] {
			inRange = inRange && math.Abs(x) <= expNormal
		}
		if inRange {
			vectorised += 4
		}
	}
	return vectorised
}

// requireExpVector skips t, naming what is missing, on a host without the
// vector exp pass, and fails it where the CPU has one and the dispatch
// declines it.
func requireExpVector(t testing.TB) {
	t.Helper()
	skipWithoutAVX2(t)
	if n := expVector(NewVec(7)); n != 4 {
		t.Fatalf("the CPU has AVX2, but the dispatch took %d of 7 elements to the vector kernel, want 4", n)
	}
}

// TestExpVectorMatchesPortable holds the vector exp pass to Exp bit for bit:
// 20 000 buffers of every length from 0 to 70, carved out of guard words at
// odd offsets (some ending where their allocation ends), holding softmax-range
// and normal-range values among edges (±0, ±708 and its neighbours, ±745,
// subnormals, ±Inf, NaN) and raw bit patterns — so that out-of-range blocks
// fall back in every position, between blocks the kernel takes.
func TestExpVectorMatchesPortable(t *testing.T) {
	requireExpVector(t)
	r := &kernelRNG{s: 23}
	edges := expEdges()
	const cases = 20000
	var elements, vectorised int
	for i := 0; i < cases; i++ {
		in := make([]float64, i%71)
		special := []float64{0, 0, 0.02, 0.3}[i%4]
		for j := range in {
			in[j] = expValue(r, edges, special)
		}
		elements += len(in)
		vectorised += checkExpPass(t, in, i%3 == 2)
	}
	t.Logf("%d buffers, %d elements: %d in blocks the kernel took", cases, elements, vectorised)
	if vectorised < elements/2 {
		t.Fatalf("the kernel took only %d of %d elements", vectorised, elements)
	}
}

// FuzzExpMatchesPortable: fuzzed raw bit patterns, the same comparison.
func FuzzExpMatchesPortable(f *testing.F) {
	for i, x := range expEdges() {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)), i%2 == 0)
	}
	seed := []byte(nil)
	for _, x := range []float64{-1, -2, -3, -4, 708, -708, 709, -745, 0, -0.5, 3, 1e-300} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, false)
	f.Fuzz(func(t *testing.T, raw []byte, toEnd bool) {
		requireExpVector(t)
		in := make([]float64, len(raw)/8)
		for i := range in {
			in[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkExpPass(t, in, toEnd)
	})
}

// softmaxBenchShapes are the benchmark workloads' SGD-step shapes: batch ×
// classes of paper-train, fleet-local/fleet-cluster and session-durable.
var softmaxBenchShapes = []struct{ rows, cols int }{{24, 10}, {8, 10}, {8, 26}}

// tiers runs bench once as dispatched and once, under name+"-portable", with
// the vector kernels declined.
func tiers(b *testing.B, name string, bench func(b *testing.B)) {
	b.Run(name, bench)
	b.Run(name+"-portable", func(b *testing.B) {
		declineVector(b)
		bench(b)
	})
}

func reportPerElement(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
}

// logitsLike fills v with what SoftmaxRows receives in training: scores of a
// few units' spread.
func logitsLike(v []float64) {
	r := &kernelRNG{s: 24}
	for i := range v {
		v[i] = 4 * r.next()
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	for _, shape := range softmaxBenchShapes {
		tiers(b, fmt.Sprintf("%dx%d", shape.rows, shape.cols), func(b *testing.B) {
			src, p := NewVec(shape.rows*shape.cols), NewVec(shape.rows*shape.cols)
			logitsLike(src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(p, src)
				if err := SoftmaxRows(p, shape.rows, shape.cols); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElement(b, len(p))
		})
	}
}

// BenchmarkExp times the exp pass over paper-train's 240 shifted logits, and
// the same loop on math.Exp for scale.
func BenchmarkExp(b *testing.B) {
	src, v := NewVec(240), NewVec(240)
	logitsLike(src)
	for i := range src {
		src[i] -= 4 // shifted by the row maximum: all ≤ 0
	}
	tiers(b, "240", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, src)
			expInPlace(v)
		}
		reportPerElement(b, len(v))
	})
	b.Run("240-math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, src)
			for j, x := range v {
				v[j] = math.Exp(x)
			}
		}
		reportPerElement(b, len(v))
	})
}

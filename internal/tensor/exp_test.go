package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
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

// expEdgeValues is expEdges, computed once.
var expEdgeValues = expEdges()

// softmaxEdge draws an edge for softmaxRow: one of expEdges (±0, ±Inf,
// subnormals, NaN, Exp's branch points and their neighbours), a NaN with a
// payload and sign of its own, quiet or signalling, or a raw bit pattern.
func softmaxEdge(r *kernelRNG) float64 {
	unit := (r.next() + 1) / 2
	r.next()
	switch {
	case unit < 0.4:
		return expEdgeValues[r.s>>11%uint64(len(expEdgeValues))]
	case unit < 0.7:
		return math.Float64frombits(r.s&(1<<63) | 0x7ff<<52 | (r.s>>12 | 1))
	default:
		return math.Float64frombits(r.s)
	}
}

// softmaxRow fills row with one of the value classes the softmax kernel must
// reproduce or decline, around an integer offset c:
//   - logits of a few units' spread;
//   - elements within 2^-28 of the row's maximum, where Exp returns 1 + t;
//   - ±0 ties at the maximum, beside negative elements;
//   - a maximum c and elements at c − 708 plus or minus as little as an ulp:
//     spreads on both sides of the bound where the kernel declines a group;
//   - a maximum c and elements spread over [c − 710, c], the whole range the
//     kernel exponentiates;
//
// and, with probability special per element, an edge (softmaxEdge).
func softmaxRow(r *kernelRNG, row []float64, special float64) {
	unit := func() float64 { return (r.next() + 1) / 2 }
	c := math.Round(8 * r.next())
	top := int(unit() * float64(len(row)))
	class := unit()
	for j := range row {
		switch {
		case class < 0.4:
			row[j] = c + 4*r.next()
		case class < 0.55:
			row[j] = c + math.Ldexp(r.next(), -25-int(7*unit()))
		case class < 0.7:
			row[j] = math.Copysign(0, r.next())
			if unit() < 0.3 {
				row[j] = -4 * unit()
			}
		case j == top:
			row[j] = c
		case class < 0.85:
			row[j] = c - 708 + math.Ldexp(r.next(), -int(52*unit()))
		default:
			row[j] = c - 710*unit()
		}
		if unit() < special {
			row[j] = softmaxEdge(r)
		}
	}
}

func softmaxMatrix(r *kernelRNG, rows, cols int, special float64) []float64 {
	m := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		softmaxRow(r, m[i*cols:(i+1)*cols], special)
	}
	return m
}

// kernelRows is how many rows the softmax kernel must take from the rows×cols
// matrix in: the groups of four before the first holding a NaN or a row whose
// minimum minus maximum is not ≥ −708.
func kernelRows(in []float64, rows, cols int) int {
	for i := 0; i < rows&^3; i++ {
		row := in[i*cols : (i+1)*cols]
		m, lo := row[0], row[0]
		for _, v := range row {
			if math.IsNaN(v) {
				return i &^ 3
			}
			m, lo = max(m, v), min(lo, v)
		}
		if !(lo-m >= -expNormal) {
			return i &^ 3
		}
	}
	return rows &^ 3
}

// checkSoftmax runs SoftmaxRows and LogSumExp on carved copies of the
// rows×cols matrix in and fails t unless both give the Go code's bits
// (softmaxPortable, logSumExpPortable) in every output and in p, NaNs
// included, and write nothing outside their slices. It also asks the dispatch
// itself, from each group of four rows on as the callers resume it after a
// group it declines: it must take exactly the rows kernelRows names, leave the
// others untouched, and hand back, for each row it took, the Go code's
// exponentials, maximum and sum — the maximum's sign of zero is the one place
// a VMAXPD with swapped operands shows. It returns how many rows the kernel
// took.
func checkSoftmax(t testing.TB, in []float64, rows, cols int, toEnd bool) int {
	t.Helper()
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d, %s[%d] = %#x (%v), Go code %#x (%v)", rows, cols, what, i,
					math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
	}
	// carve returns n guard words carved out of more, src copied over them.
	var carved []testutil.Carved[float64]
	carve := func(n int, src []float64, toEnd bool) []float64 {
		v, c := testutil.Carve(n, toEnd, guard)
		copy(v, src)
		carved = append(carved, c)
		return v
	}

	want := slices.Clone(in)
	softmaxPortable(want, cols)
	p := carve(len(in), in, toEnd)
	if err := SoftmaxRows(p, rows, cols); err != nil {
		t.Fatal(err)
	}
	same("SoftmaxRows", p, want)

	wantOut := make([]float64, rows)
	copy(want, in)
	logSumExpPortable(want, cols, wantOut)
	p, out := carve(len(in), in, !toEnd), carve(rows, nil, toEnd)
	if err := LogSumExp(p, rows, cols, out); err != nil {
		t.Fatal(err)
	}
	same("LogSumExp p", p, want)
	same("LogSumExp out", out, wantOut)

	p, maxes, sums := carve(len(in), in, toEnd), carve(rows, nil, !toEnd), carve(rows, nil, toEnd)
	copy(want, in)
	wantMax, wantSum := make([]float64, rows), make([]float64, rows)
	for i := range wantMax {
		wantMax[i], wantSum[i] = guard, guard
	}
	taken := 0
	for i := 0; i < rows; i += 4 {
		k := 0
		if HasAVX2 {
			k = kernelRows(in[i*cols:], rows-i, cols)
		}
		if got := softmaxVector(p[i*cols:], rows-i, cols, maxes[i:], sums[i:]); got != k {
			t.Fatalf("%dx%d: from row %d the kernel took %d rows, want %d", rows, cols, i, got, k)
		}
		taken += k
		for end := i + k; i < end; i++ {
			wantMax[i], wantSum[i] = shiftExpSum(want[i*cols : (i+1)*cols])
		}
	}
	same("kernel exponentials", p, want)
	same("kernel maxima", maxes, wantMax)
	same("kernel sums", sums, wantSum)
	for i, c := range carved {
		if !c.Intact() {
			t.Fatalf("%dx%d: buffer %d (SoftmaxRows p; LogSumExp p, out; kernel p, maxes, sums) was written outside its slice", rows, cols, i)
		}
	}
	return taken
}

// TestSoftmaxVectorMatchesPortable holds the softmax kernel to the Go code
// bit for bit (checkSoftmax): 20 000 matrices of 0–40 rows × 1–30 columns,
// carved out of guard words (some ending where their allocation ends), each
// row of one of softmaxRow's value classes; half without edges, the rest with
// edges on 0.3 % or 3 % of the elements — so that declined groups fall in
// every position, between groups the kernel takes.
func TestSoftmaxVectorMatchesPortable(t *testing.T) {
	skipWithoutAVX2(t)
	r := &kernelRNG{s: 23}
	const cases = 20000
	var total, taken int
	for i := 0; i < cases; i++ {
		unit := func() float64 { return (r.next() + 1) / 2 }
		rows, cols := int(41*unit()), 1+int(30*unit())
		special := []float64{0, 0, 0.003, 0.03}[i%4]
		total += rows
		taken += checkSoftmax(t, softmaxMatrix(r, rows, cols, special), rows, cols, i%3 == 2)
	}
	t.Logf("%d matrices, %d rows: the kernel took %d", cases, total, taken)
	if taken < total/3 {
		t.Fatalf("the kernel took only %d of %d rows", taken, total)
	}
}

// FuzzSoftmaxRowsMatchesPortable: a fuzzed shape (up to evaluation's 512
// rows), softmaxRow classes from a fuzzed seed, raw bit patterns over them,
// the same comparison.
func FuzzSoftmaxRowsMatchesPortable(f *testing.F) {
	for i, shape := range softmaxBenchShapes {
		f.Add(uint16(shape.rows), uint8(shape.cols), uint64(i), []byte(nil), i%2 == 0)
	}
	f.Add(uint16(9), uint8(3), uint64(99), binary.LittleEndian.AppendUint64(nil, 0x7ff8dead00000001), true)
	f.Fuzz(func(t *testing.T, rows uint16, cols uint8, seed uint64, raw []byte, toEnd bool) {
		skipWithoutAVX2(t)
		n, c := int(rows)%513, 1+int(cols)%64
		in := softmaxMatrix(&kernelRNG{s: seed}, n, c, float64(seed%4)/40)
		for i := 0; i < len(in) && 8*i+8 <= len(raw); i++ {
			in[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSoftmax(t, in, n, c, toEnd)
	})
}

// FuzzExpMatchesPortable: every fuzzed bit pattern x as a row [0, x] — which
// the kernel exponentiates as −|x| and 0, or declines — in groups of four
// rows padded with [0, 0], through checkSoftmax.
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
		skipWithoutAVX2(t)
		rows := (len(raw)/8 + 3) &^ 3
		in := make([]float64, 2*rows)
		for i := 0; 8*i+8 <= len(raw); i++ {
			in[2*i+1] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSoftmax(t, in, rows, 2, toEnd)
	})
}

// softmaxBenchShapes are the benchmark workloads' softmax shapes: the SGD
// steps' batch × classes of paper-train, fleet-local/fleet-cluster and
// session-durable, and evaluation's 512-row chunk.
var softmaxBenchShapes = []struct{ rows, cols int }{{24, 10}, {8, 10}, {8, 26}, {512, 10}}

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

// softmaxBenchPool holds BenchmarkSoftmaxRows's inputs: 2^20 logitsLike
// values, read as consecutive rows×cols windows — over a million distinct
// matrices of each benchmarked shape, so that, as in training, no branch
// predictor has seen the next input. On one input repeated, the Go code's
// maximum reads as if it never mispredicted.
var softmaxBenchPool = sync.OnceValue(func() []float64 {
	v := NewVec(1 << 20)
	logitsLike(v)
	return v
})

func BenchmarkSoftmaxRows(b *testing.B) {
	pool := softmaxBenchPool()
	for _, shape := range softmaxBenchShapes {
		n := shape.rows * shape.cols
		tiers(b, fmt.Sprintf("%dx%d", shape.rows, shape.cols), func(b *testing.B) {
			p := NewVec(n)
			off := 0
			for i := 0; i < b.N; i++ {
				copy(p, pool[off:off+n])
				off = (off + n) % (len(pool) - n + 1)
				if err := SoftmaxRows(p, shape.rows, shape.cols); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElement(b, n)
		})
	}
}

// BenchmarkExp times Exp over paper-train's 240 shifted logits, and the same
// loop on math.Exp for scale.
func BenchmarkExp(b *testing.B) {
	src, v := NewVec(240), NewVec(240)
	logitsLike(src)
	for i := range src {
		src[i] -= 4 // shifted by the row maximum: all ≤ 0
	}
	b.Run("240", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				v[j] = Exp(x)
			}
		}
		reportPerElement(b, len(v))
	})
	b.Run("240-math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				v[j] = math.Exp(x)
			}
		}
		reportPerElement(b, len(v))
	})
}

package fixpoint

import (
	"math"
	"math/big"
	"math/bits"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
)

// TestFixQuantizeRoundTrips: quantize → dequantize is exact for values on
// the grid and within half a grid step otherwise.
func TestFixQuantizeRoundTrips(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.5, 1e-10, -1e-10, 3.141592653589793,
		-2.718281828459045, 1 << 22, -(1 << 22), 5e-25, -5e-25,
		math.Ldexp(1, -80), -math.Ldexp(1, -80),
	}
	step := math.Ldexp(1, -fixShift)
	for _, x := range cases {
		lo, hi, ok := fixQuantize(x)
		if !ok {
			t.Fatalf("fixQuantize(%v) saturated", x)
		}
		got := fixToFloat(lo, hi)
		if math.Abs(got-x) > step {
			t.Fatalf("fixQuantize(%v) round-trips to %v (off by %v > grid step)", x, got, got-x)
		}
	}
}

// TestFixQuantizeSaturates: non-finite and over-cap addends must saturate,
// never wrap.
func TestFixQuantizeSaturates(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2 * fixMaxAddend, -2 * fixMaxAddend} {
		if _, _, ok := fixQuantize(x); ok {
			t.Fatalf("fixQuantize(%v) did not saturate", x)
		}
	}
	a := New(2)
	if err := a.AddScaled(1, tensor.Vec{1, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if !a.Saturated() {
		t.Fatal("accumulator did not latch saturation")
	}
	v := tensor.Vec{0, 0}
	if err := a.AddTo(v); err != nil {
		t.Fatal(err)
	}
	if v.IsFinite() {
		t.Fatalf("saturated accumulator folded to finite %v", v)
	}
}

// TestAccGroupingInvariance is the heart of the hierarchical-aggregation
// guarantee: summing N random addends flat, in contiguous groups of every
// size, and in reversed order must produce bit-identical limbs and a
// bit-identical float fold.
func TestAccGroupingInvariance(t *testing.T) {
	const n, p = 137, 9
	rng := stats.NewRNG(42)
	scales := make([]float64, n)
	deltas := make([]tensor.Vec, n)
	for i := range deltas {
		scales[i] = math.Exp(4 * (rng.Float64() - 0.5))
		deltas[i] = tensor.NewVec(p)
		for j := range deltas[i] {
			deltas[i][j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-30)
		}
	}

	flat := New(p)
	for i := range deltas {
		if err := flat.AddScaled(scales[i], deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
	flatLo, flatHi, _ := flat.Limbs()

	for _, k := range []int{1, 2, 3, 7, 16, n} {
		top := New(p)
		part := New(p)
		for g := 0; g < n; g += k {
			part.Reset()
			hi := g + k
			if hi > n {
				hi = n
			}
			for i := g; i < hi; i++ {
				if err := part.AddScaled(scales[i], deltas[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := top.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi2, _ := top.Limbs()
		for j := 0; j < p; j++ {
			if lo[j] != flatLo[j] || hi2[j] != flatHi[j] {
				t.Fatalf("group size %d: limb %d differs from flat fold", k, j)
			}
		}
	}

	rev := New(p)
	for i := n - 1; i >= 0; i-- {
		if err := rev.AddScaled(scales[i], deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
	revLo, revHi, _ := rev.Limbs()
	for j := 0; j < p; j++ {
		if revLo[j] != flatLo[j] || revHi[j] != flatHi[j] {
			t.Fatalf("reversed fold: limb %d differs from flat fold", j)
		}
	}
}

// TestAccNegativeSums: mixed-sign accumulation stays exact through the
// two's-complement representation.
func TestAccNegativeSums(t *testing.T) {
	a := New(1)
	if err := a.AddScaled(1, tensor.Vec{2.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddScaled(1, tensor.Vec{-4.25}); err != nil {
		t.Fatal(err)
	}
	v := tensor.Vec{10}
	if err := a.AddTo(v); err != nil {
		t.Fatal(err)
	}
	if v[0] != 10+(2.5-4.25) {
		t.Fatalf("mixed-sign sum = %v, want %v", v[0], 10+(2.5-4.25))
	}
}

// fixQuantizeRef is the float-library quantizer AddScaled used to call, kept
// verbatim as the oracle the integer one is held to. It maps x onto the 2^-fixShift grid, returning the two's
// complement 128-bit limbs of round-to-nearest-even(x·2^fixShift).
// ok is false when x is non-finite or exceeds the addend cap.
func fixQuantizeRef(x float64) (lo, hi uint64, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > fixMaxAddend {
		return 0, 0, false
	}
	// Scaling by a power of two is exact; the single rounding step is the
	// round-to-even snap onto the integer grid.
	v := math.RoundToEven(math.Ldexp(x, fixShift))
	if v == 0 {
		return 0, 0, true
	}
	neg := v < 0
	av := math.Abs(v)
	// Split the (exactly representable) integer av into 64-bit limbs. Both
	// the power-of-two divide and the subtraction are exact: av < 2^103 has
	// a 53-bit mantissa, so av mod 2^64 spans at most 53 significant bits.
	hf := math.Floor(math.Ldexp(av, -64))
	lf := av - math.Ldexp(hf, 64)
	lo, hi = uint64(lf), uint64(hf)
	if neg {
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return lo, hi, true
}

// foldFunc is one tier of AddScaledDiff's contract, with
// addScaledDiffPortable's signature: it adds to the three digit rows.
type foldFunc func(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) (sat bool)

// dispatched is the tier AddScaledDiff runs on this host — the vector kernel
// plus the Go tail with AVX2, the Go loop alone without — on the caller's
// digits.
func dispatched(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) bool {
	a := Acc{d0: d0, d1: d1, d2: d2}
	if err := a.AddScaledDiff(scale, factor, w, g); err != nil {
		panic(err)
	}
	return a.sat
}

// requireVectorTier skips t, naming what is missing, on a host where AddScaled
// has no vector tier, and fails it where the CPU has one and the dispatch
// declines to use it.
func requireVectorTier(t testing.TB) {
	t.Helper()
	if !tensor.HasAVX2 {
		t.Skip("vector fold not exercised: the CPU lacks AVX2, the OS does not save YMM state, or GOARCH is not amd64")
	}
	// The dispatch itself says how much it vectorises; asking it, not
	// re-deriving its rule, is what catches a dispatch that always declines.
	d := func() []int64 { return make([]int64, 7) }
	if n, _ := foldVector(1, 1, tensor.NewVec(7), tensor.NewVec(7), d(), d(), d()); n != 4 {
		t.Fatalf("the CPU has AVX2, but the dispatch took %d of 7 parameters to the vector kernel, want 4", n)
	}
}

// fixQuantize runs one addend through AddScaled — lane 0 of a zero accumulator
// one vector block long — and returns the limbs it added.
func fixQuantize(x float64) (lo, hi uint64, ok bool) {
	a := New(4)
	if err := a.AddScaled(1, tensor.Vec{x, 0, 0, 0}); err != nil {
		panic(err)
	}
	l, h, sat := a.Limbs()
	return l[0], h[0], !sat
}

// bigLimbs is limbs written with math/big, independent of the code under
// test: d0 + d1·2^32 + d2·2^64 modulo 2^128, as two's-complement limbs.
func bigLimbs(d0, d1, d2 int64) (lo, hi uint64) {
	s := new(big.Int).Lsh(big.NewInt(d2), 32)
	s.Add(s, big.NewInt(d1))
	s.Lsh(s, 32)
	s.Add(s, big.NewInt(d0))
	return bigToLimbs(s)
}

// bigToLimbs returns s modulo 2^128 as two's-complement limbs.
func bigToLimbs(s *big.Int) (lo, hi uint64) {
	m := new(big.Int).Lsh(big.NewInt(1), 128)
	s = new(big.Int).Mod(s, m) // Mod is Euclidean: the result is in [0, 2^128)
	lo = new(big.Int).And(s, new(big.Int).SetUint64(^uint64(0))).Uint64()
	return lo, new(big.Int).Rsh(s, 64).Uint64()
}

// add128 adds two two's-complement 128-bit numbers.
func add128(alo, ahi, blo, bhi uint64) (lo, hi uint64) {
	lo, c := bits.Add64(alo, blo, 0)
	hi, _ = bits.Add64(ahi, bhi, c)
	return lo, hi
}

// fracMask covers a float64's 52 stored significand bits.
const fracMask = 1<<f64FracBits - 1

// quantizeEdges are the addends where the digit split could part from the
// reference: the grid step and its half-way points, the cap and its
// neighbours, the digit boundaries, and everything that must round to exactly
// 0 or saturate.
func quantizeEdges() []float64 {
	step := math.Ldexp(1, -fixShift)
	edges := []float64{
		0, 1, 0.5, 1e-10, 3.141592653589793, 1 << 22,
		step,                        // one grid step
		step / 2,                    // tie between 0 and 1: to 0
		3 * step / 2,                // tie between 1 and 2: to 2
		5 * step / 2,                // tie between 2 and 3: to 2
		math.Nextafter(step/2, 1),   // just above a tie
		math.Nextafter(step/2, 0),   // just below a tie
		math.Nextafter(3*step/2, 0), // just below a tie with an odd neighbour
		step / 4,                    // below every tie: always 0
		math.Nextafter(step/2, 0) / 2,
		math.Ldexp(1<<52+1, -52-28), // a 53-bit integer on the grid
		math.Ldexp(1<<52+1, -52-29), // a tie with an even neighbour
		math.Ldexp(1<<52+3, -52-29), // a tie with an odd neighbour
		math.Ldexp(1<<53-1, -52-27), // every significand bit set, on the grid
		math.Ldexp(1<<53-1, -52-28-53),
		math.Ldexp(1<<53-1, -52-28-54),
		math.Ldexp(1<<32-1, -fixShift),   // digit 0 full, digit 1 empty
		math.Ldexp(1<<32+1, -fixShift),   // one unit in digit 0 and in digit 1
		math.Ldexp(1, 63-fixShift),       // a tie between two digit-2 multiples
		math.Ldexp(1<<53-1, 22-fixShift), // every significand bit set, across both digit boundaries
		fixMaxAddend,                     // the cap is inclusive
		math.Nextafter(fixMaxAddend, math.Inf(1)),
		math.Nextafter(fixMaxAddend, 0),
		2 * fixMaxAddend,
		0x1p-1022, // smallest normal
		math.Nextafter(0x1p-1022, 0),
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
		math.Inf(1),
		math.NaN(),
		math.Float64frombits(0x7FF0_0000_DEAD_BEEF), // signalling NaN with a payload
		math.Float64frombits(0x7FFF_FFFF_FFFF_FFFF),
	}
	for _, x := range edges {
		edges = append(edges, -x) // NaNs gain a sign bit, which must not matter
	}
	return edges
}

// prefill is what the four lanes' digits (d0, d1, d2) hold before an addend
// arrives: zero, lo all ones as MergeLimbs leaves it, −1, and large digits of
// both signs inside the headroom with hi near the signed maximum. Normalising
// them with the addend crosses every limb and digit boundary both ways.
var prefill = [4][3]int64{
	{0, 0, 0},
	{1<<32 - 1, 1<<32 - 1, 0},
	{-1, 0, 0},
	{1<<62 - 1, -(1 << 62), 1<<63 - 1<<30},
}

// Digit rows are carved inside guard words: a kernel that stores past its
// digits, or a test that carves wrongly, changes one.
const (
	guardDigit = int64(0x7ff8dead_beef_cafe)
	guardFloat = -0x1.deadbeefcafep+700
)

// quantizeCheck holds one tier to the reference quantizer four addends at a
// time. The four fill one vector block, its digit rows carved inside guard
// words, and are rotated through it, so every addend passes through every
// lane position and meets every prefill, its neighbours being the other
// three — each held to the reference like it.
type quantizeCheck struct {
	fold        foldFunc
	delta, zero tensor.Vec
	d           [3][]int64
	carved      [3]testutil.Carved[int64]
}

func newQuantizeCheck(fold foldFunc) *quantizeCheck {
	q := &quantizeCheck{fold: fold, delta: tensor.NewVec(4), zero: tensor.NewVec(4)}
	for k := range q.d {
		q.d[k], q.carved[k] = testutil.Carve(4, k == 1, guardDigit)
	}
	return q
}

// prefillLimbs is prefill normalised by bigLimbs.
var prefillLimbs = func() (l [4][2]uint64) {
	for i, p := range prefill {
		l[i][0], l[i][1] = bigLimbs(p[0], p[1], p[2])
	}
	return l
}()

func (q *quantizeCheck) check(t testing.TB, xs [4]float64) {
	t.Helper()
	var ref [4]struct {
		lo, hi uint64
		ok     bool
	}
	for i, x := range xs {
		ref[i].lo, ref[i].hi, ref[i].ok = fixQuantizeRef(x)
	}
	for rot := 0; rot < 4; rot++ {
		for lane := range q.delta {
			q.delta[lane] = xs[(lane+rot)&3]
			for k := range q.d {
				q.d[k][lane] = prefill[lane][k]
			}
		}
		sat := q.fold(1, 1, q.delta, q.zero, q.d[0], q.d[1], q.d[2])
		wantSat := false
		for lane, x := range q.delta {
			r := ref[(lane+rot)&3]
			wantLo, wantHi := prefillLimbs[lane][0], prefillLimbs[lane][1]
			if r.ok {
				wantLo, wantHi = add128(wantLo, wantHi, r.lo, r.hi)
			} else {
				wantSat = true // and the lane's digits stay as they were
			}
			lo, hi := limbs(q.d[0][lane], q.d[1][lane], q.d[2][lane])
			if lo != wantLo || hi != wantHi {
				t.Fatalf("quantize(%v = %#016x) in lane %d onto %#016x:%016x = %#016x:%016x, reference %#016x:%016x (ok=%v)",
					x, math.Float64bits(x), lane, prefillLimbs[lane][1], prefillLimbs[lane][0], hi, lo, wantHi, wantLo, r.ok)
			}
		}
		if sat != wantSat {
			t.Fatalf("block %v: sat = %v, reference %v", q.delta, sat, wantSat)
		}
		for k := range q.carved {
			if !q.carved[k].Intact() {
				t.Fatalf("block %v: the fold wrote outside digit row %d", q.delta, k)
			}
		}
	}
}

// TestQuantizeMatchesReference is the differential test of the digit split:
// the normalised limbs and the saturation verdict must equal the
// float-library reference on every edge and on seeded random bit patterns,
// magnitudes and exact ties — for the Go loop on every host, and through
// AddScaled's vector kernel, in every lane position, wherever there is one.
func TestQuantizeMatchesReference(t *testing.T) {
	t.Run("portable", func(t *testing.T) { quantizeDifferential(t, addScaledDiffPortable) })
	t.Run("vector", func(t *testing.T) {
		requireVectorTier(t)
		quantizeDifferential(t, dispatched)
	})
}

func quantizeDifferential(t *testing.T, fold foldFunc) {
	q := newQuantizeCheck(fold)
	edges := quantizeEdges()
	for i := 0; i < len(edges); i += 4 {
		var xs [4]float64
		for k := range xs {
			xs[k] = edges[(i+k)%len(edges)]
		}
		q.check(t, xs)
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := stats.NewRNG(13)
	for i := 0; i < n; i++ {
		var xs [4]float64
		xs[0] = math.Float64frombits(rng.Uint64())
		// A uniform significand at every exponent from far below the grid to
		// past the cap, both signs.
		xs[1] = math.Ldexp(1+rng.Float64(), rng.Intn(171)-140)
		if i&1 == 1 {
			xs[1] = -xs[1]
		}
		// An odd multiple of half a grid step: an exact tie, neighbours of
		// either parity, at every size a tie can have.
		xs[2] = math.Ldexp(float64(rng.Uint64()>>(11+rng.Intn(53))|1), -fixShift-1)
		xs[3] = -xs[2]
		q.check(t, xs)
	}
}

// digitBoundaryAddends are ties and near-ties of both signs where the digit
// split changes hands: B = x·2^80 at k·2^32 ± ½ and k·2^64 ± ½ (the nearest
// floats where the ½ does not fit the significand), half way between two
// multiples of 2^32 or of 2^64, and the floats on either side of each.
func digitBoundaryAddends() []float64 {
	var bs []float64
	near := func(b float64) {
		bs = append(bs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	for _, k := range []float64{1, 2, 3, 5, 1<<19 - 1, 1 << 19, 1<<20 + 1, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32} {
		for _, unit := range []float64{1 << 32, 1 << 64} {
			base := k * unit
			for _, off := range []float64{0, 0.5, -0.5, 1.5, -1.5} {
				near(base + off)
			}
			near(base + unit/2) // half way to the next multiple
			near(base - unit/2)
			near(base + 1<<31) // half a digit-1 unit off a digit-2 multiple
			near(base - 1<<31)
		}
	}
	// The largest k·2^32 ± ½ that fit the significand, and odd halves near them.
	for _, m := range []float64{1<<52 - 1, 1<<52 - 3, 1 << 51} {
		near(m + 0.5)
		near(-(m + 0.5))
	}
	var xs []float64
	for _, b := range bs {
		x := math.Ldexp(b, -fixShift)
		xs = append(xs, x, -x)
	}
	return xs
}

// TestDigitBoundaries holds both tiers to the reference where one digit
// hands over to the next, so a magic constant off by a binade, or a digit
// rounded the wrong way, cannot hide among the random addends.
func TestDigitBoundaries(t *testing.T) {
	xs := digitBoundaryAddends()
	for _, tier := range []struct {
		name string
		fold foldFunc
	}{{"portable", addScaledDiffPortable}, {"vector", dispatched}} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.name == "vector" {
				requireVectorTier(t)
			}
			q := newQuantizeCheck(tier.fold)
			for i := 0; i < len(xs); i += 3 {
				// A boundary addend beside its neighbours and the grid tie.
				q.check(t, [4]float64{xs[i], xs[(i+1)%len(xs)], xs[(i+2)%len(xs)], 0x1p-81})
			}
		})
	}
}

// FuzzQuantizeMatchesReference hands the fuzzer the addend's 64 bits; its
// block's other three are its negation, the adjacent float and the same
// exponent under the complemented fraction. The normalised limbs are held to
// the reference, in every lane position and inside guard words. The Go loop
// is checked on every host; without a vector tier the exec then reports
// itself skipped.
func FuzzQuantizeMatchesReference(f *testing.F) {
	for _, x := range quantizeEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		xs := [4]float64{
			math.Float64frombits(b), math.Float64frombits(b ^ f64SignBit),
			math.Float64frombits(b ^ 1), math.Float64frombits(b ^ fracMask),
		}
		newQuantizeCheck(addScaledDiffPortable).check(t, xs)
		requireVectorTier(t)
		newQuantizeCheck(dispatched).check(t, xs)
	})
}

// TestAddScaledMatchesReferenceElementwise: the loop AddScaled ships — on a
// vector, with a scale that makes the product round, onto limbs that already
// hold sums of both signs — equals the reference quantizer applied to each
// product and added with carry, and an addend that saturates is skipped,
// latches sat for good and leaves its neighbours alone.
func TestAddScaledMatchesReferenceElementwise(t *testing.T) {
	const p = 4099
	rng := stats.NewRNG(29)
	edges := quantizeEdges()
	got, wantLo, wantHi := New(p), make([]uint64, p), make([]uint64, p)
	wantSat := false
	for round := 0; round < 6; round++ {
		scale := math.Exp(6 * (rng.Float64() - 0.5))
		delta := tensor.NewVec(p)
		for j := range delta {
			delta[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-50)
		}
		if round == 3 {
			// Every edge, through a scale of exactly 1 so it arrives intact;
			// the NaNs, infinities and over-cap values among them saturate.
			scale = 1
			copy(delta[p/2:], edges)
		}
		for j, d := range delta {
			lo, hi, ok := fixQuantizeRef(scale * d)
			if !ok {
				wantSat = true
				continue
			}
			wantLo[j], wantHi[j] = add128(wantLo[j], wantHi[j], lo, hi)
		}
		if err := got.AddScaled(scale, delta); err != nil {
			t.Fatal(err)
		}
		lo, hi, sat := got.Limbs()
		if sat != wantSat {
			t.Fatalf("round %d: sat = %v, reference %v", round, sat, wantSat)
		}
		for j := range lo {
			if lo[j] != wantLo[j] || hi[j] != wantHi[j] {
				t.Fatalf("round %d, parameter %d: limbs %#016x:%016x, reference %#016x:%016x",
					round, j, hi[j], lo[j], wantHi[j], wantLo[j])
			}
		}
	}
	if !wantSat {
		t.Fatal("the edge round did not saturate: the sticky flag went untested")
	}
	if err := got.AddScaled(1, tensor.NewVec(p+1)); err == nil {
		t.Fatal("AddScaled accepted a delta of the wrong length")
	}
}

// randomDigits draws one parameter's digits: d0 and d1 of either sign up to
// 2^62 in magnitude, inside the headroom the package comment promises, d2
// anything — a quarter of them summing to one unit either side of a limb
// boundary.
func randomDigits(rng *stats.RNG) (d0, d1, d2 int64) {
	d0, d1, d2 = int64(rng.Uint64())>>1, int64(rng.Uint64())>>1, int64(rng.Uint64())
	if rng.Bernoulli(0.25) {
		d0, d1 = int64(rng.Intn(3))-1, 0
	}
	return d0, d1, d2
}

// TestVectorFoldMatchesPortable holds AddScaled's vector tier to the Go loop
// digit for digit, and its normalised limbs to the float-library reference:
// every length from 0 to 70 (whole blocks and all four tail sizes), scales
// of both signs, addends on both sides of every digit boundary, edges and
// raw bit patterns among them, onto digits that already hold sums — each
// buffer carved out of guard words at an odd offset, some ending where their
// allocation ends, because the kernel stores through raw pointers.
func TestVectorFoldMatchesPortable(t *testing.T) {
	requireVectorTier(t)

	rng := stats.NewRNG(31)
	edges := quantizeEdges()
	const cases = 20000
	for i := 0; i < cases; i++ {
		n := i % 71
		delta, deltaCarved := testutil.Carve(n, i%3 == 2, guardFloat)
		var d [3][]int64
		var carved [3]testutil.Carved[int64]
		for k := range d {
			d[k], carved[k] = testutil.Carve(n, i%(5+2*k) == 4, guardDigit)
		}
		scale := math.Exp(6 * (rng.Float64() - 0.5))
		special := []float64{0, 0, 0.02, 0.3}[i%4]
		if special > 0 && rng.Bernoulli(0.5) {
			scale = 1 // edges arrive intact
		}
		if i&1 == 1 {
			scale = -scale
		}
		for j := range delta {
			switch {
			case rng.Bernoulli(special):
				delta[j] = edges[rng.Intn(len(edges))]
			case rng.Bernoulli(special):
				delta[j] = math.Float64frombits(rng.Uint64())
			default:
				delta[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-50)
			}
			d[0][j], d[1][j], d[2][j] = randomDigits(rng)
		}
		before := tensor.Vec(delta).Clone()
		zero := tensor.NewVec(n)
		var want [3][]int64
		for k := range want {
			want[k] = append([]int64(nil), d[k]...)
		}
		refLo, refHi := make([]uint64, n), make([]uint64, n)
		for j := range refLo {
			refLo[j], refHi[j] = bigLimbs(d[0][j], d[1][j], d[2][j])
		}
		refSat := refFold(refLo, refHi, func(j int) float64 { return scale * delta[j] })
		wantSat := addScaledDiffPortable(scale, 1, delta, zero, want[0], want[1], want[2])
		if sat := dispatched(scale, 1, delta, zero, d[0], d[1], d[2]); sat != wantSat || sat != refSat {
			t.Fatalf("case %d, n=%d scale=%v: sat = %v, portable %v, reference %v", i, n, scale, sat, wantSat, refSat)
		}
		for j := range delta {
			for k := range d {
				if d[k][j] != want[k][j] {
					t.Fatalf("case %d, n=%d scale=%v, parameter %d (delta %v = %#016x): digit %d %#x, portable %#x",
						i, n, scale, j, delta[j], math.Float64bits(delta[j]), k, d[k][j], want[k][j])
				}
			}
			if lo, hi := limbs(d[0][j], d[1][j], d[2][j]); lo != refLo[j] || hi != refHi[j] {
				t.Fatalf("case %d, n=%d scale=%v, parameter %d (delta %v): limbs %#016x:%016x, reference %#016x:%016x",
					i, n, scale, j, delta[j], hi, lo, refHi[j], refLo[j])
			}
			if math.Float64bits(delta[j]) != math.Float64bits(before[j]) {
				t.Fatalf("case %d, n=%d: the fold changed delta[%d]", i, n, j)
			}
		}
		if !deltaCarved.Intact() || !carved[0].Intact() || !carved[1].Intact() || !carved[2].Intact() {
			t.Fatalf("case %d, n=%d: the fold wrote outside its slices (delta %v, d0 %v, d1 %v, d2 %v intact)",
				i, n, deltaCarved.Intact(), carved[0].Intact(), carved[1].Intact(), carved[2].Intact())
		}
	}

	// One saturating lane among finite ones, in every lane position: its
	// digits stay put, its neighbours fold as if it were not there, and the
	// flag survives a clean fold and goes with Reset.
	finite := tensor.Vec{1.5, -2.25e-9, 3e-12, -7, 0x1p-30, -0x1p-81, 1 << 21, -1e-20}
	alone := New(len(finite))
	if err := alone.AddScaled(-3, finite); err != nil || alone.Saturated() {
		t.Fatalf("the finite fold: err %v, saturated %v", err, alone.Saturated())
	}
	for lane := range finite {
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 3 << 22, -math.MaxFloat64} {
			a := New(len(finite))
			delta := finite.Clone()
			delta[lane] = bad
			if err := a.AddScaled(-3, delta); err != nil {
				t.Fatal(err)
			}
			for j := range finite {
				want := [3]int64{alone.d0[j], alone.d1[j], alone.d2[j]}
				if j == lane {
					want = [3]int64{}
				}
				if got := [3]int64{a.d0[j], a.d1[j], a.d2[j]}; got != want {
					t.Fatalf("lane %d = %v: parameter %d holds digits %#x, want %#x", lane, bad, j, got, want)
				}
			}
			if err := a.AddScaled(-3, finite); err != nil {
				t.Fatal(err)
			}
			if !a.Saturated() {
				t.Fatalf("lane %d = %v: saturation not latched across a clean fold", lane, bad)
			}
			if a.Reset(); a.Saturated() {
				t.Fatal("Reset left the saturation flag set")
			}
		}
	}
}

// TestAccHeadroom pins the package doc's promise: 2^24 − 1 addends of cap
// magnitude and one sign still sum exactly. The count is reached by doubling
// through MergeLimbs — total += 2^k addends, k = 0..23 — not by 16M folds.
func TestAccHeadroom(t *testing.T) {
	for _, sign := range []float64{1, -1} {
		pow := New(1) // 2^k cap-magnitude addends
		if err := pow.AddScaled(sign, tensor.Vec{fixMaxAddend}); err != nil {
			t.Fatal(err)
		}
		total := New(1)
		for k := 0; k < 24; k++ {
			if err := total.Merge(pow); err != nil {
				t.Fatal(err)
			}
			lo, hi, sat := pow.Limbs()
			if err := pow.MergeLimbs([]uint64{lo[0]}, []uint64{hi[0]}, sat); err != nil {
				t.Fatal(err)
			}
		}
		if total.Saturated() {
			t.Fatalf("sign %v: cap-magnitude addends saturated", sign)
		}
		v := tensor.Vec{0}
		if err := total.AddTo(v); err != nil {
			t.Fatal(err)
		}
		// (2^24 − 1)·2^23 has 24 significant bits: the float is exact.
		if want := sign * (1<<24 - 1) * fixMaxAddend; v[0] != want {
			t.Fatalf("sign %v: 2^24-1 cap addends fold to %v, want %v", sign, v[0], want)
		}
	}
}

// TestDigitHeadroom folds 2^20 cap-size addends of one sign, then 2^20 of
// mixed signs, and merges 2^20 partials of all-ones limbs, each onto one
// accumulator, and holds every sum to math/big. Beside the cap, the addends
// are those that move d0 or d1 by the most a fold can, 2^31 (ties at a digit
// boundary), so in the one-sign run the digits drift as far as 2^20 folds can
// take them while the sums approach 2^123.
func TestDigitHeadroom(t *testing.T) {
	const n = 1 << 20
	// Lanes 0–3 are a vector block, 4 the Go tail.
	lanes := [5]float64{
		fixMaxAddend,                        // d2 = 2^39
		math.Nextafter(fixMaxAddend, 0),     // the largest addend below the cap
		0x1p63 / (1 << fixShift),            // B = 2^63, a tie at 2^64: d1 = 2^31
		(0x1p31 + 0.5) / (1 << fixShift),    // a tie at 2^32 and one at 1: d0 = 2^31
		(0x1p63 + 0x1p31) / (1 << fixShift), // d0 = 2^31, d1 = −2^31, d2 = 1
	}
	refSum := func(xs []float64) *big.Int {
		q, _ := new(big.Float).SetPrec(0).SetFloat64(math.RoundToEven(math.Ldexp(xs[0], fixShift))).Int(nil)
		return q
	}
	check := func(name string, a *Acc, want [5]*big.Int) {
		t.Helper()
		lo, hi, sat := a.Limbs()
		if sat {
			t.Fatalf("%s: saturated", name)
		}
		for j := range want {
			wantLo, wantHi := bigToLimbs(want[j])
			if lo[j] != wantLo || hi[j] != wantHi {
				t.Fatalf("%s, parameter %d: limbs %#016x:%016x, math/big %#016x:%016x (digits %d %d %d)",
					name, j, hi[j], lo[j], wantHi, wantLo, a.d0[j], a.d1[j], a.d2[j])
			}
		}
	}
	for _, mixed := range []bool{false, true} {
		a := New(len(lanes))
		var want [5]*big.Int
		for j := range want {
			want[j] = new(big.Int)
		}
		pos, neg := tensor.Vec(lanes[:]).Clone(), tensor.Vec(lanes[:]).Clone()
		neg.Scale(-1)
		rng := stats.NewRNG(43)
		for i := 0; i < n; i++ {
			delta := neg
			if mixed && rng.Bernoulli(0.5) {
				delta = pos
			}
			if err := a.AddScaled(1, delta); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				want[j].Add(want[j], refSum(delta[j:]))
			}
		}
		name := "one sign"
		if mixed {
			name = "mixed signs"
		}
		check(name, a, want)
	}

	a := New(len(lanes))
	ones := make([]uint64, len(lanes))
	for j := range ones {
		ones[j] = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		if err := a.MergeLimbs(ones, ones, false); err != nil {
			t.Fatal(err)
		}
	}
	var want [5]*big.Int
	for j := range want {
		want[j] = big.NewInt(-n) // all-ones limbs are −1
	}
	check("merges of all-ones limbs", a, want)
}

// TestFoldAllocs: a group's fold — Reset, AddScaledDiff per member (or
// AddScaled per stored delta), Limbs, AddTo — runs once per round per group on
// buffers made at New and allocates nothing.
func TestFoldAllocs(t *testing.T) {
	const p = 610
	delta, v := benchDelta(p, 0.37, 3), tensor.NewVec(p)
	w, g := benchDelta(p, 0.37, 4), benchDelta(p, 0.37, 5)
	a := New(p)
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		if err := a.AddScaled(0.37, delta); err != nil {
			t.Fatal(err)
		}
		if err := a.AddScaledDiff(0.37, -2, w, g); err != nil {
			t.Fatal(err)
		}
		if _, _, sat := a.Limbs(); sat {
			t.Fatal("saturated")
		}
		if err := a.AddTo(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+AddScaled+AddScaledDiff+Limbs+AddTo allocates %v times per fold, want 0", allocs)
	}
}

// benchDelta draws a delta whose products with scale have magnitudes from
// 2^-40 to 2^-20 and either sign: real addends sit on both sides of 2^-28,
// where the quantizer's shift changes direction.
func benchDelta(p int, scale float64, seed uint64) tensor.Vec {
	rng := stats.NewRNG(seed)
	delta := tensor.NewVec(p)
	for j := range delta {
		delta[j] = math.Ldexp(1+rng.Float64(), -41+rng.Intn(21)) / scale
		if rng.Bernoulli(0.5) {
			delta[j] = -delta[j]
		}
	}
	return delta
}

// benchSizes are the two model sizes the engine folds: Setup 1's 610
// parameters (the fleet workloads) and MNIST-shaped 7 850.
var benchSizes = []struct {
	name string
	p    int
}{{"p=610", 610}, {"p=7850", 7850}}

// BenchmarkAddScaled folds a rotation of 32 distinct deltas, as a group folds
// its members, on the tier AddScaled dispatches to and, beside it, on the Go
// loop. Neither tier has a branch that depends on an addend's value — the Go
// loop's one test, saturation, never fires here — so the rotation is there
// for the caches: 32 deltas are what a group's members stream through.
func BenchmarkAddScaled(b *testing.B) {
	for _, size := range benchSizes {
		deltas := make([]tensor.Vec, 32)
		for i := range deltas {
			deltas[i] = benchDelta(size.p, 0.37, uint64(i+1))
		}
		a := New(size.p)
		for _, tier := range []struct {
			name string
			fold foldFunc
		}{{size.name, dispatched}, {size.name + "-portable", addScaledDiffPortable}} {
			b.Run(tier.name, func(b *testing.B) {
				b.SetBytes(int64(8 * size.p))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if tier.fold(0.37, 1, deltas[i%len(deltas)], a.zero, a.d0, a.d1, a.d2) {
						b.Fatal("saturated")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.p), "ns/param")
			})
		}
	}
}

func BenchmarkMergeLimbs(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			a, part := New(size.p), New(size.p)
			if err := part.AddScaled(0.37, benchDelta(size.p, 0.37, 1)); err != nil {
				b.Fatal(err)
			}
			lo, hi, sat := part.Limbs()
			b.SetBytes(int64(16 * size.p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.MergeLimbs(lo, hi, sat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAddTo(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			a, v := New(size.p), tensor.NewVec(size.p)
			if err := a.AddScaled(0.37, benchDelta(size.p, 0.37, 1)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(16 * size.p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.AddTo(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

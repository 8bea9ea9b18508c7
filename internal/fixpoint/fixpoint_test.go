package fixpoint

import (
	"math"
	"math/bits"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
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

// foldFunc is one tier of AddScaled's contract, with addScaledPortable's
// signature.
type foldFunc func(scale float64, delta tensor.Vec, lo, hi []uint64) (sat bool)

// dispatched is the tier AddScaled runs on this host — the vector kernel plus
// the Go tail with AVX2, the Go loop alone without — on the caller's limbs.
func dispatched(scale float64, delta tensor.Vec, lo, hi []uint64) bool {
	a := Acc{lo: lo, hi: hi}
	if err := a.AddScaled(scale, delta); err != nil {
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
	if n, _ := foldVector(1, tensor.NewVec(7), make([]uint64, 7), make([]uint64, 7)); n != 4 {
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
	return a.lo[0], a.hi[0], !a.sat
}

// quantizeEdges are the addends where the integer quantizer could part from
// the reference: the grid step and its half-way points, the cap and its
// neighbours, the smallest shifts that still round to something, and
// everything that must quantize to exactly 0 or saturate.
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
		step / 4,                    // a shift of 54: always 0
		math.Nextafter(step/2, 0) / 2,
		math.Ldexp(1<<52+1, -52-28), // s = 0: no shift either way
		math.Ldexp(1<<52+1, -52-29), // s = -1, tie with an even neighbour
		math.Ldexp(1<<52+3, -52-29), // s = -1, tie with an odd neighbour
		math.Ldexp(1<<53-1, -52-27), // s = 1, every significand bit set
		math.Ldexp(1<<53-1, -52-28-53),
		math.Ldexp(1<<53-1, -52-28-54),
		fixMaxAddend, // the cap is inclusive
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

// prefill is what the four lanes' limbs (lo, hi) hold before an addend
// arrives, chosen so that the 128-bit add crosses the limb boundary both ways.
var prefill = [4][2]uint64{
	{0, 0},                   // a negative addend borrows through hi
	{^uint64(0), 0},          // a positive one carries into hi
	{^uint64(0), ^uint64(0)}, // −1: a positive one carries out of hi as well
	{1 << 63, 1<<63 - 1},     // the carry's own top-bit cases, hi at the signed maximum
}

// quantizeCheck holds one tier to the reference quantizer four addends at a
// time. The four fill one vector block and are rotated through it, so every
// addend passes through every lane position and meets every prefill, its
// neighbours being the other three — each held to the reference like it.
type quantizeCheck struct {
	fold   foldFunc
	delta  tensor.Vec
	lo, hi []uint64
}

func newQuantizeCheck(fold foldFunc) *quantizeCheck {
	return &quantizeCheck{fold: fold, delta: tensor.NewVec(4), lo: make([]uint64, 4), hi: make([]uint64, 4)}
}

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
			q.lo[lane], q.hi[lane] = prefill[lane][0], prefill[lane][1]
		}
		sat := q.fold(1, q.delta, q.lo, q.hi)
		wantSat := false
		for lane, x := range q.delta {
			r := ref[(lane+rot)&3]
			wantLo, wantHi := prefill[lane][0], prefill[lane][1]
			if r.ok {
				var c uint64
				wantLo, c = bits.Add64(wantLo, r.lo, 0)
				wantHi, _ = bits.Add64(wantHi, r.hi, c)
			} else {
				wantSat = true // and the lane's limbs stay as they were
			}
			if q.lo[lane] != wantLo || q.hi[lane] != wantHi {
				t.Fatalf("quantize(%v = %#016x) in lane %d onto %#016x:%016x = %#016x:%016x, reference %#016x:%016x (ok=%v)",
					x, math.Float64bits(x), lane, prefill[lane][1], prefill[lane][0], q.hi[lane], q.lo[lane], wantHi, wantLo, r.ok)
			}
		}
		if sat != wantSat {
			t.Fatalf("block %v: sat = %v, reference %v", q.delta, sat, wantSat)
		}
	}
}

// TestQuantizeMatchesReference is the differential test of the integer
// quantizer: limbs and saturation must equal the float-library reference on
// every edge and on seeded random bit patterns, magnitudes and exact ties —
// for the Go loop on every host, and through AddScaled's vector kernel, in
// every lane position, wherever there is one.
func TestQuantizeMatchesReference(t *testing.T) {
	t.Run("portable", func(t *testing.T) { quantizeDifferential(t, addScaledPortable) })
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

// FuzzQuantizeMatchesReference hands the fuzzer the addend's 64 bits; its
// block's other three are its negation, the adjacent float and the same
// exponent under the complemented fraction. The Go loop is checked on every
// host; without a vector tier the exec then reports itself skipped.
func FuzzQuantizeMatchesReference(f *testing.F) {
	for _, x := range quantizeEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		xs := [4]float64{
			math.Float64frombits(b), math.Float64frombits(b ^ f64SignBit),
			math.Float64frombits(b ^ 1), math.Float64frombits(b ^ f64FracMask),
		}
		newQuantizeCheck(addScaledPortable).check(t, xs)
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
			var c uint64
			wantLo[j], c = bits.Add64(wantLo[j], lo, 0)
			wantHi[j], _ = bits.Add64(wantHi[j], hi, c)
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

// The words written around every carved slice: a kernel that stores past its
// limbs, or a test that carves wrongly, changes one.
const (
	guardWord  = uint64(0x7ff8dead_beef_cafe)
	guardFloat = -0x1.deadbeefcafep+700
)

// carved is a slice cut out of a larger backing array filled with guards.
type carved[T comparable] struct {
	backing []T
	lo, n   int
	guard   T
}

// carve returns n elements starting at an odd index of their backing array,
// so they are 8- but not 32-byte aligned within the allocation, with guards on
// both sides — or, with toEnd, ending exactly where the backing array does.
func carve[T comparable](n int, toEnd bool, guard T) ([]T, carved[T]) {
	c := carved[T]{backing: make([]T, n+6), lo: 3, n: n, guard: guard}
	if toEnd {
		c.backing, c.lo = c.backing[:n+1], 1
	}
	for i := range c.backing {
		c.backing[i] = guard
	}
	return c.backing[c.lo : c.lo+n : c.lo+n], c
}

func (c carved[T]) intact() bool {
	for i, v := range c.backing {
		if (i < c.lo || i >= c.lo+c.n) && v != c.guard {
			return false
		}
	}
	return true
}

// TestVectorFoldMatchesPortable holds AddScaled's vector tier to the Go loop
// limb for limb: every length from 0 to 70 (whole blocks and all four tail
// sizes), scales of both signs, addends on both sides of every shift, edges
// and raw bit patterns among them, onto limbs that already hold sums — each
// buffer carved out of guard words at an odd offset, some ending where their
// allocation ends, because the kernel stores through raw pointers.
func TestVectorFoldMatchesPortable(t *testing.T) {
	requireVectorTier(t)
	_, c := carve(4, false, guardWord)
	c.backing[c.lo+c.n] = 0
	if c.intact() {
		t.Fatal("a write after the slice went unnoticed")
	}

	rng := stats.NewRNG(31)
	edges := quantizeEdges()
	const cases = 20000
	for i := 0; i < cases; i++ {
		n := i % 71
		delta, deltaCarved := carve(n, i%3 == 2, guardFloat)
		lo, loCarved := carve(n, i%5 == 4, guardWord)
		hi, hiCarved := carve(n, i%7 == 6, guardWord)
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
			// Sums of either sign, a quarter of them one step from the limb
			// boundary.
			lo[j], hi[j] = rng.Uint64(), rng.Uint64()
			if rng.Bernoulli(0.25) {
				lo[j] = -uint64(rng.Intn(3))
			}
		}
		before := tensor.Vec(delta).Clone()
		wantLo, wantHi := append([]uint64(nil), lo...), append([]uint64(nil), hi...)
		wantSat := addScaledPortable(scale, delta, wantLo, wantHi)
		if sat := dispatched(scale, delta, lo, hi); sat != wantSat {
			t.Fatalf("case %d, n=%d scale=%v: sat = %v, portable %v", i, n, scale, sat, wantSat)
		}
		for j := range lo {
			if lo[j] != wantLo[j] || hi[j] != wantHi[j] {
				t.Fatalf("case %d, n=%d scale=%v, parameter %d (delta %v = %#016x): limbs %#016x:%016x, portable %#016x:%016x",
					i, n, scale, j, delta[j], math.Float64bits(delta[j]), hi[j], lo[j], wantHi[j], wantLo[j])
			}
			if math.Float64bits(delta[j]) != math.Float64bits(before[j]) {
				t.Fatalf("case %d, n=%d: the fold changed delta[%d]", i, n, j)
			}
		}
		if !deltaCarved.intact() || !loCarved.intact() || !hiCarved.intact() {
			t.Fatalf("case %d, n=%d: the fold wrote outside its slices (delta %v, lo %v, hi %v intact)",
				i, n, deltaCarved.intact(), loCarved.intact(), hiCarved.intact())
		}
	}

	// One saturating lane among finite ones, in every lane position: its limbs
	// stay put, its neighbours fold as if it were not there, and the flag
	// survives a clean fold and goes with Reset.
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
				wantLo, wantHi := alone.lo[j], alone.hi[j]
				if j == lane {
					wantLo, wantHi = 0, 0
				}
				if a.lo[j] != wantLo || a.hi[j] != wantHi {
					t.Fatalf("lane %d = %v: parameter %d holds %#016x:%016x, want %#016x:%016x",
						lane, bad, j, a.hi[j], a.lo[j], wantHi, wantLo)
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

// TestFoldAllocs: a group's fold — Reset, AddScaled per member, Limbs, AddTo —
// runs once per round per group on buffers made at New and allocates nothing.
func TestFoldAllocs(t *testing.T) {
	const p = 610
	delta, v := benchDelta(p, 0.37, 3), tensor.NewVec(p)
	a := New(p)
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		if err := a.AddScaled(0.37, delta); err != nil {
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
		t.Fatalf("Reset+AddScaled+Limbs+AddTo allocates %v times per fold, want 0", allocs)
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
// loop. The rotation is there for the Go loop: on one repeated vector the
// branch predictor learns every data-dependent branch its quantizer has and
// hides it. The vector kernel has none to learn.
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
		}{{size.name, dispatched}, {size.name + "-portable", addScaledPortable}} {
			b.Run(tier.name, func(b *testing.B) {
				b.SetBytes(int64(8 * size.p))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if tier.fold(0.37, deltas[i%len(deltas)], a.lo, a.hi) {
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

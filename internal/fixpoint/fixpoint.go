// Package fixpoint is the canonical aggregation arithmetic of the
// federation: a 128-bit signed fixed-point accumulator shared by the engine's
// coordinator-side aggregators and its group nodes. Lemma 1's weighted sum
//
//	Σ_{n∈S_r} (a_n/q_n)(w_n^{r+1} − w^r)
//
// is mathematically associative, but IEEE-754 float addition is not — a
// chained float fold depends on the fold tree, so hierarchical (grouped)
// aggregation could never be bit-identical to the flat fold. The fix is to
// move the summation into exact integer arithmetic: each addend
// x = fl(scale·delta[j]) ("One fold" below gives the full sequence) is
// computed in float exactly once per client (grouping-independent), rounded
// exactly onto a 2^-fixShift grid, and summed as an integer modulo 2^128.
// Integer addition IS associative and commutative, so any grouping, any merge
// order, any worker count, and any backend produce the same 128-bit sum —
// and therefore, after one deterministic conversion back to float64, the same
// global model bit for bit. This is what lets a sub-aggregator group fold K
// members node-side and ship only its partial (two uint64 limbs per
// parameter, the sum in two's complement) while the coordinator's merge of
// group partials stays provably identical to the flat per-client fold.
//
// Precision and range: the grid step is 2^-80 ≈ 8.3e-25 — far below the
// float64 ulp of any parameter the models here produce — and a single addend
// may carry magnitude up to and including 2^23. A saturating addend (NaN,
// ±Inf, or above the cap) poisons the accumulator: the final fold yields NaN,
// so the orchestrator's divergence guard fires exactly as it would had the
// float fold overflowed. With |addend| ≤ 2^23 the integer magnitude per
// addend is at most 2^103, leaving headroom for 2^24 − 1 (≈16.7M) addends of
// one sign before the signed 128-bit range could overflow — comfortably above
// the 1e6-client fleets this engine targets.
//
// Three digits. Each parameter's sum is kept as three signed int64 digits,
// d0 + d1·2^32 + d2·2^64 modulo 2^128, and an addend is split into three
// such digits by float adds alone (AddScaledDiff), so folding it is three
// integer adds with no carry between them. Limbs and AddTo normalise the
// digits to the wire's two limbs once per partial; MergeLimbs adds incoming
// limbs as digits (d0 += lo mod 2^32, d1 += lo >> 32, d2 += hi). A fold moves
// d0 and d1 by at most 2^31 and a merge by less than 2^32, so neither can
// overflow before 2^31 folds and merges, and d2 may wrap, since only the sum
// modulo 2^128 is kept: the binding headroom is the 128-bit range above.
//
// One fold. AddScaledDiff folds a client's update straight from the two
// models it is the difference of: the addend is fl(scale·fl(factor·fl(w − g)))
// per parameter, w the client's trained parameters, g the round's global
// model and factor its poisoning factor (1 when honest, and multiplying by 1
// is exact). That is, bit for bit, the addend of writing the delta w − g,
// scaling it by factor and folding it at scale, so a caller that never
// materialises the delta folds the same limbs as one that does. AddScaled(s, d)
// is AddScaledDiff(s, 1, d, zero) over a read-only row of +0 the accumulator
// owns: d − (+0) is d exactly, −0 included.
//
// Two tiers. The fold is one operation sequence per element, written down on
// AddScaledDiff as the contract, and it comes in two implementations that
// produce the same digits and the same saturation verdict.
// addScaledDiffPortable is that sequence as a Go loop: the whole
// implementation on every platform but one, and the reference. On amd64 with
// AVX2 (tensor.HasAVX2, the module's one CPU probe: no option, environment
// variable or build tag) an assembly kernel, fold_amd64.s, takes the leading
// len &^ 3 parameters, four consecutive ones to a vector: each lane runs the
// sequence on its own parameter, a saturating lane zeroed where the loop
// skips it. The last ≤ 3 parameters go through the Go loop; blocks never
// overlap, because accumulating twice is not accumulating once. Nothing
// crosses lanes and nothing is reassociated, so which tier ran — per host,
// per group node — cannot be told from the result. MergeLimbs, Limbs and
// AddTo have one tier.
package fixpoint

import (
	"errors"
	"math"
	"math/bits"

	"unbiasedfl/internal/tensor"
)

// fixShift is the binary point of the accumulator: addends are rounded to
// integer multiples of 2^-fixShift before summation.
const fixShift = 80

// fixMaxAddend bounds the magnitude one addend may contribute; anything
// larger (or non-finite) saturates the accumulator. The cap itself is allowed.
const fixMaxAddend = 1 << 23

// The IEEE-754 binary64 bit patterns the fold works with, written as bits
// for the assembly: go_asm.h carries integer constants only.
const (
	f64SignBit  = 1 << 63
	f64FracBits = 52
	// fixCapBits is Float64bits(fixMaxAddend) = Float64bits(2^23). Float
	// bit patterns with the sign cleared order like the magnitudes they
	// encode, with ±Inf and every NaN above all finite values, so one
	// unsigned compare against it rejects NaN, ±Inf and over-cap addends.
	fixCapBits = (1023 + 23) << f64FracBits
	// fixGridBits is Float64bits(2^fixShift), and magicKBits is
	// Float64bits(c_k) = Float64bits(1.5·2^(52+32k)) (AddScaledDiff).
	fixGridBits = (1023 + fixShift) << f64FracBits
	magic0Bits  = (1023+f64FracBits)<<f64FracBits | 1<<(f64FracBits-1)
	magic1Bits  = (1023+f64FracBits+32)<<f64FracBits | 1<<(f64FracBits-1)
	magic2Bits  = (1023+f64FracBits+64)<<f64FracBits | 1<<(f64FracBits-1)
)

// fixStep is the grid step 2^-fixShift — what one unit of the low limb is
// worth as a float64 — and fixHiStep what one unit of the high limb is.
const (
	fixStep   = 1.0 / (1 << fixShift)
	fixHiStep = 1.0 / (1 << (fixShift - 64))
)

var errFixLen = errors.New("fixpoint: accumulator length mismatch")

// Acc is a vector of 128-bit signed fixed-point accumulators — one per
// model parameter, held as three digits — plus a sticky saturation flag. The
// zero value is not usable; construct with New.
type Acc struct {
	d0, d1, d2 []int64  // the digits (package comment, "Three digits")
	lo, hi     []uint64 // the limbs Limbs normalises them to
	// zero is the read-only row of +0 AddScaled folds its delta against.
	zero tensor.Vec
	sat  bool
}

// New returns a zeroed accumulator for n parameters.
func New(n int) *Acc {
	return &Acc{d0: make([]int64, n), d1: make([]int64, n), d2: make([]int64, n),
		lo: make([]uint64, n), hi: make([]uint64, n), zero: tensor.NewVec(n)}
}

// Len returns the number of parameters the accumulator covers.
func (a *Acc) Len() int { return len(a.d0) }

// Reset zeroes the accumulator for reuse.
func (a *Acc) Reset() {
	clear(a.d0)
	clear(a.d1)
	clear(a.d2)
	a.sat = false
}

// AddScaled folds one client's weighted delta into the accumulator: it is
// AddScaledDiff(scale, 1, delta, zero), whose subtraction of +0 and multiply
// by 1 are exact, so for each parameter j the addend is fl(scale·delta[j]).
// That one rounding depends solely on (scale, delta[j]) — never on what is
// already accumulated — the key grouping-invariance property.
func (a *Acc) AddScaled(scale float64, delta tensor.Vec) error {
	return a.AddScaledDiff(scale, 1, delta, a.zero)
}

// AddScaledDiff folds one client's update without a delta buffer: for each
// parameter j it rounds x = fl(scale·fl(factor·fl(w[j] − g[j]))) onto the
// 2^-fixShift grid — round to nearest, ties to even — and adds the exact
// integer. An addend that is NaN, ±Inf or above 2^23 in magnitude (2^23
// itself is accepted) is skipped and latches the saturation flag; a
// subnormal or ±0 addend adds exactly 0. w and g are only read.
//
// The per-element operation sequence is the contract; both tiers (package
// comment, "Two tiers") implement it step for step. The subtraction and the
// two multiplies are three IEEE roundings in that order — factor first, then
// scale; fl(fl(scale·factor)·d) is a different number. With the sign
// cleared, x's bits compare against fixCapBits as an integer: above it is
// NaN, ±Inf or over the cap. Otherwise B = x·2^80 is exact, and with the
// magic constants c_k = 1.5·2^(52+32k), whose ulp is 2^(32k),
//
//	T2 = B + c2, H = T2 − c2, R = B − H
//	T1 = R + c1, M = T1 − c1, L = R − M
//	T0 = L + c0
//
// and d_k += bits(T_k) − bits(c_k). Each T_k stays in c_k's binade
// (|B| ≤ 2^103, |R| ≤ 2^63, |L| ≤ 2^31), so its add rounds to a multiple of
// 2^(32k) whose count sits in the low bits, and every subtraction is exact:
// the digits are H/2^64, M/2^32 and L rounded. H + M is a multiple of 2^32,
// so that last rounding, ties to even, is B's own. A ±0 or subnormal addend
// leaves every T_k at c_k and adds 0.
//
// Vectorised region: the leading len &^ 3 parameters, where the CPU has AVX2.
// The last ≤ 3, and every parameter on any other host, run the Go loop.
func (a *Acc) AddScaledDiff(scale, factor float64, w, g tensor.Vec) error {
	if len(w) != len(a.d0) || len(g) != len(a.d0) {
		return errFixLen
	}
	n, sat := foldVector(scale, factor, w, g, a.d0, a.d1, a.d2)
	tail := addScaledDiffPortable(scale, factor, w[n:], g[n:], a.d0[n:], a.d1[n:], a.d2[n:])
	a.sat = a.sat || sat || tail
	return nil
}

// addScaledDiffPortable is AddScaledDiff's contract as a Go loop over five
// slices of one length: the whole implementation without a vector kernel, the
// ragged tail with one, and the oracle the kernel's tests hold it to. It
// reports whether an addend saturated. The product x·2^80 is written
// float64(…) so that no target may fuse it into the add that follows.
func addScaledDiffPortable(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) (sat bool) {
	// Same-length reslices let the compiler drop the bounds checks from the
	// loop.
	d1 = d1[:len(d0)]
	d2 = d2[:len(d0)]
	w = w[:len(d0)]
	g = g[:len(d0)]
	grid := math.Float64frombits(fixGridBits)
	c0, c1, c2 := math.Float64frombits(magic0Bits), math.Float64frombits(magic1Bits), math.Float64frombits(magic2Bits)
	for j := range d0 {
		x := scale * float64(factor*float64(w[j]-g[j]))
		if math.Float64bits(x)&^f64SignBit > fixCapBits {
			sat = true
			continue
		}
		b := float64(x * grid)
		t2 := b + c2
		r := b - (t2 - c2)
		t1 := r + c1
		t0 := (r - (t1 - c1)) + c0
		d2[j] += int64(math.Float64bits(t2) - magic2Bits)
		d1[j] += int64(math.Float64bits(t1) - magic1Bits)
		d0[j] += int64(math.Float64bits(t0) - magic0Bits)
	}
	return sat
}

// Merge folds another accumulator into a (exact integer addition; the
// saturation flag is sticky across merges).
func (a *Acc) Merge(b *Acc) error {
	return a.MergeLimbs(b.Limbs())
}

// MergeLimbs folds raw limb vectors — the wire form a group partial ships —
// into a, as digits: lo's low and high 32 bits into d0 and d1, hi into d2.
// lo and hi must be the same length as the accumulator.
func (a *Acc) MergeLimbs(lo, hi []uint64, sat bool) error {
	if len(lo) != len(a.d0) || len(hi) != len(a.d0) {
		return errFixLen
	}
	a.sat = a.sat || sat
	d0, d1, d2, hi := a.d0[:len(lo)], a.d1[:len(lo)], a.d2[:len(lo)], hi[:len(lo)]
	for j, l := range lo {
		d0[j] += int64(l & (1<<32 - 1))
		d1[j] += int64(l >> 32)
		d2[j] += int64(hi[j])
	}
	return nil
}

// Limbs normalises the digits into the accumulator's raw limbs and exposes
// them for shipping as a group partial: lo and hi are the sum in 128-bit
// two's complement. The slices alias the accumulator; callers must not retain
// them across a Reset or further accumulation.
func (a *Acc) Limbs() (lo, hi []uint64, sat bool) {
	lo, hi = a.lo, a.hi[:len(a.lo)]
	d0, d1, d2 := a.d0[:len(lo)], a.d1[:len(lo)], a.d2[:len(lo)]
	for j := range lo {
		lo[j], hi[j] = limbs(d0[j], d1[j], d2[j])
	}
	return lo, hi, a.sat
}

// limbs returns d0 + d1·2^32 + d2·2^64 modulo 2^128 as two's-complement
// limbs: d0 and d1 sign-extended, d1 split at the limb boundary.
func limbs(d0, d1, d2 int64) (lo, hi uint64) {
	lo, c := bits.Add64(uint64(d0), uint64(d1)<<32, 0)
	return lo, uint64(d0>>63) + uint64(d1>>32) + uint64(d2) + c
}

// Saturated reports whether any addend overflowed the fixed-point range.
func (a *Acc) Saturated() bool { return a.sat }

// AddTo converts each accumulated sum back to float64 — one deterministic
// conversion per parameter, a pure function of the 128-bit sum — and adds
// it to v. A saturated accumulator writes NaN into every element so the
// caller's divergence guard trips.
func (a *Acc) AddTo(v tensor.Vec) error {
	if len(v) != len(a.d0) {
		return errFixLen
	}
	if a.sat {
		for j := range v {
			v[j] = math.NaN()
		}
		return nil
	}
	d0, d1, d2 := a.d0[:len(v)], a.d1[:len(v)], a.d2[:len(v)]
	for j := range v {
		lo, hi := limbs(d0[j], d1[j], d2[j])
		// An exactly-zero sum leaves the parameter untouched — the same
		// "no participants, no change" semantics as the historical fold,
		// preserved down to the sign of a -0.0 parameter.
		if lo == 0 && hi == 0 {
			continue
		}
		v[j] += fixToFloat(lo, hi)
	}
	return nil
}

// fixToFloat converts one 128-bit two's-complement fixed-point sum to
// float64. The result is a pure function of the limbs, so every fold tree
// that reaches the same integer sum reaches the same float.
func fixToFloat(lo, hi uint64) float64 {
	neg := hi>>63 != 0
	if neg {
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	// Scaling by a power of two is exact (neither product is anywhere near
	// the subnormal range), so the sum is the conversion's one rounding.
	f := float64(float64(hi)*fixHiStep) + float64(float64(lo)*fixStep)
	if neg {
		f = -f
	}
	return f
}

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
// x = fl(scale·delta[j]) is computed in float exactly once per client
// (grouping-independent), quantized exactly onto a 2^-fixShift grid, and
// summed as a 128-bit two's-complement integer. Integer addition IS
// associative and commutative, so any grouping, any merge order, any worker
// count, and any backend produce the same limbs — and therefore, after one
// deterministic conversion back to float64, the same global model bit for
// bit. This is what lets a sub-aggregator group fold K members node-side and
// ship only its partial (two uint64 limbs per parameter) while the
// coordinator's merge of group partials stays provably identical to the flat
// per-client fold.
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
// The quantizer is integer arithmetic on the product's IEEE-754 bits, not a
// chain of math-library calls: a float with biased exponent e and 53-bit
// significand m is m·2^(e−1075), so on the grid it is m·2^(e−995) — the
// significand shifted left into the two limbs when e ≥ 995, and shifted
// right with round-half-to-even on the dropped bits when e < 995. Anything
// below half a grid step — every subnormal and ±0 among them — is an exact
// zero, and the sign is applied as a two's-complement negate. The one float
// rounding per addend is the product fl(scale·delta[j]) itself.
//
// Two tiers. The fold is one operation sequence per element, written down on
// AddScaled as the contract, and it comes in two implementations that produce
// the same limbs and the same saturation verdict. addScaledPortable is that
// sequence as a Go loop: the whole implementation on every platform but one,
// and the reference. On amd64 with AVX2 (tensor.HasAVX2, the module's one CPU
// probe: no option, environment variable or build tag) an assembly kernel,
// fold_amd64.s, takes the leading len &^ 3 parameters, four consecutive ones
// to a vector: each lane runs the sequence on its own parameter with the
// loop's branches replaced by variable shifts, whose result is 0 once the
// count reaches 64. The last ≤ 3 parameters go through the Go loop; blocks
// never overlap, because accumulating twice is not accumulating once. Nothing
// crosses lanes and nothing is reassociated, so which tier ran — per host,
// per group node — cannot be told from the result. MergeLimbs and AddTo have
// one tier.
package fixpoint

import (
	"errors"
	"math"
	"math/bits"

	"unbiasedfl/internal/tensor"
)

// fixShift is the binary point of the accumulator: addends are quantized to
// integer multiples of 2^-fixShift before summation.
const fixShift = 80

// fixMaxAddend bounds the magnitude one addend may contribute; anything
// larger (or non-finite) saturates the accumulator. The cap itself is allowed.
const fixMaxAddend = 1 << 23

// The IEEE-754 binary64 layout the quantizer reads a product through.
const (
	f64SignBit  = 1 << 63
	f64FracBits = 52
	f64Implicit = 1 << f64FracBits
	f64FracMask = f64Implicit - 1
	// fixCapBits is Float64bits(fixMaxAddend) = Float64bits(2^23). Float
	// bit patterns with the sign cleared order like the magnitudes they
	// encode, with ±Inf and every NaN above all finite values, so one
	// unsigned compare against it rejects NaN, ±Inf and over-cap addends.
	fixCapBits = (1023 + 23) << f64FracBits
	// fixExpBias turns a biased exponent e into the power of two the 53-bit
	// significand carries on the grid: m·2^(e−1075)·2^fixShift = m·2^(e−fixExpBias).
	fixExpBias = 1075 - fixShift
)

// fixStep is the grid step 2^-fixShift — what one unit of the low limb is
// worth as a float64 — and fixHiStep what one unit of the high limb is.
const (
	fixStep   = 1.0 / (1 << fixShift)
	fixHiStep = 1.0 / (1 << (fixShift - 64))
)

var errFixLen = errors.New("fixpoint: accumulator length mismatch")

// Acc is a vector of 128-bit signed fixed-point accumulators — one per
// model parameter — plus a sticky saturation flag. The zero value is not
// usable; construct with New.
type Acc struct {
	lo, hi []uint64
	sat    bool
}

// New returns a zeroed accumulator for n parameters.
func New(n int) *Acc {
	return &Acc{lo: make([]uint64, n), hi: make([]uint64, n)}
}

// Len returns the number of parameters the accumulator covers.
func (a *Acc) Len() int { return len(a.lo) }

// Reset zeroes the accumulator for reuse.
func (a *Acc) Reset() {
	clear(a.lo)
	clear(a.hi)
	a.sat = false
}

// AddScaled folds one client's weighted delta into the accumulator:
// for each parameter j it quantizes fl(scale·delta[j]) onto the 2^-fixShift
// grid — round to nearest, ties to even — and adds the exact integer. The
// float product is the only float rounding step and depends solely on
// (scale, delta[j]) — never on what is already accumulated — which is the
// key grouping-invariance property. A product that is NaN, ±Inf or above
// 2^23 in magnitude (2^23 itself is accepted) is skipped and latches the
// saturation flag; a subnormal or ±0 product adds exactly 0.
//
// The per-element operation sequence is the contract; both tiers (package
// comment, "Two tiers") implement it step for step. The product is one IEEE
// multiply — there is nothing to fuse it with — and b is its bits. With the
// sign cleared, b compares against fixCapBits as an integer: above it is NaN,
// ±Inf or over the cap. Otherwise, with m the 53-bit significand (implicit
// bit ORed in), e the biased exponent and s = e − fixExpBias, the addend's
// magnitude is m·2^s, s running from 51 at the cap down to −995:
//
//   - s ≥ 0 (|x| ≥ 2^-28, most of what a fleet folds): m shifted left by s
//     across the two limbs, exactly.
//   - −54 ≤ s < 0: m shifted right by r = −s, rounded half-to-even on the r
//     dropped bits by adding half − 1 plus the parity of the kept part
//     before the shift; the result fits the low limb.
//   - s < −54: below a quarter of a grid step, exactly 0. A biased exponent
//     of 0 — subnormals, ±0 — lands here too, so the implicit bit ORed into
//     m without looking is harmless.
//
// A negative product is added as ^x + 1: the limbs are complemented and the
// sign bit rides in as the carry of the 128-bit add, so the sign costs no
// branch.
//
// Vectorised region: the leading len &^ 3 parameters, where the CPU has AVX2.
// The last ≤ 3, and every parameter on any other host, run the Go loop.
func (a *Acc) AddScaled(scale float64, delta tensor.Vec) error {
	if len(delta) != len(a.lo) {
		return errFixLen
	}
	n, sat := foldVector(scale, delta, a.lo, a.hi)
	tail := addScaledPortable(scale, delta[n:], a.lo[n:], a.hi[n:])
	a.sat = a.sat || sat || tail
	return nil
}

// addScaledPortable is AddScaled's contract as a Go loop over three slices of
// one length: the whole implementation without a vector kernel, the ragged
// tail with one, and the oracle the kernel's tests hold it to. It reports
// whether an addend saturated.
func addScaledPortable(scale float64, delta tensor.Vec, lo, hi []uint64) (sat bool) {
	// Same-length reslices let the compiler drop the bounds checks from the
	// loop.
	hi = hi[:len(lo)]
	delta = delta[:len(lo)]
	for j := range lo {
		b := math.Float64bits(scale * delta[j])
		mag := b &^ f64SignBit
		if mag > fixCapBits {
			sat = true
			continue
		}
		m := mag&f64FracMask | f64Implicit
		var xlo, xhi uint64
		if s := int(mag>>f64FracBits) - fixExpBias; s >= 0 {
			xlo = m << (uint(s) & 63)
			xhi = m >> 1 >> (uint(63-s) & 63) // m >> (64−s), defined at s = 0
		} else {
			r := uint(-s)
			if r > 54 {
				continue
			}
			r &= 63
			xlo = (m + (1<<(r-1) - 1) + m>>r&1) >> r
		}
		sign := b >> 63
		var c uint64
		lo[j], c = bits.Add64(lo[j], xlo^-sign, sign)
		hi[j], _ = bits.Add64(hi[j], xhi^-sign, c)
	}
	return sat
}

// Merge folds another accumulator into a (exact integer addition; the
// saturation flag is sticky across merges).
func (a *Acc) Merge(b *Acc) error {
	return a.MergeLimbs(b.lo, b.hi, b.sat)
}

// MergeLimbs folds raw limb vectors — the wire form a group partial ships —
// into a. lo and hi must be the same length as the accumulator.
func (a *Acc) MergeLimbs(lo, hi []uint64, sat bool) error {
	if len(lo) != len(a.lo) || len(hi) != len(a.hi) {
		return errFixLen
	}
	a.sat = a.sat || sat
	for j := range lo {
		var c uint64
		a.lo[j], c = bits.Add64(a.lo[j], lo[j], 0)
		a.hi[j], _ = bits.Add64(a.hi[j], hi[j], c)
	}
	return nil
}

// Limbs exposes the accumulator's raw state for shipping as a group partial.
// The slices alias the accumulator; callers must not retain them across a
// Reset or further accumulation.
func (a *Acc) Limbs() (lo, hi []uint64, sat bool) { return a.lo, a.hi, a.sat }

// Saturated reports whether any addend overflowed the fixed-point range.
func (a *Acc) Saturated() bool { return a.sat }

// AddTo converts each accumulated sum back to float64 — one deterministic
// conversion per parameter, a pure function of the integer limbs — and adds
// it to v. A saturated accumulator writes NaN into every element so the
// caller's divergence guard trips.
func (a *Acc) AddTo(v tensor.Vec) error {
	if len(v) != len(a.lo) {
		return errFixLen
	}
	if a.sat {
		for j := range v {
			v[j] = math.NaN()
		}
		return nil
	}
	for j := range v {
		// An exactly-zero sum leaves the parameter untouched — the same
		// "no participants, no change" semantics as the historical fold,
		// preserved down to the sign of a -0.0 parameter.
		if a.lo[j] == 0 && a.hi[j] == 0 {
			continue
		}
		v[j] += fixToFloat(a.lo[j], a.hi[j])
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

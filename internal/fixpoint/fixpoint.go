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
// may carry magnitude up to 2^23. A saturating addend (non-finite, or above
// the cap) poisons the accumulator: the final fold yields NaN, so the
// orchestrator's divergence guard fires exactly as it would had the float
// fold overflowed. With |addend| < 2^23 the integer magnitude per addend is
// below 2^103, leaving headroom for 2^24 (≈16.7M) addends before the signed
// 128-bit range could overflow — comfortably above the 1e6-client fleets
// this engine targets.
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
// larger (or non-finite) saturates the accumulator.
const fixMaxAddend = 1 << 23

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
	for j := range a.lo {
		a.lo[j] = 0
		a.hi[j] = 0
	}
	a.sat = false
}

// AddScaled folds one client's weighted delta into the accumulator:
// for each parameter j it quantizes fl(scale·delta[j]) and adds the exact
// integer. The float product is the only rounding step and depends solely on
// (scale, delta[j]) — never on what is already accumulated — which is the
// key grouping-invariance property.
func (a *Acc) AddScaled(scale float64, delta tensor.Vec) error {
	if len(delta) != len(a.lo) {
		return errFixLen
	}
	for j, d := range delta {
		x := scale * d
		lo, hi, ok := fixQuantize(x)
		if !ok {
			a.sat = true
			continue
		}
		var c uint64
		a.lo[j], c = bits.Add64(a.lo[j], lo, 0)
		a.hi[j], _ = bits.Add64(a.hi[j], hi, c)
	}
	return nil
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

// fixQuantize maps x onto the 2^-fixShift grid, returning the two's
// complement 128-bit limbs of round-to-nearest-even(x·2^fixShift).
// ok is false when x is non-finite or exceeds the addend cap.
func fixQuantize(x float64) (lo, hi uint64, ok bool) {
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
	f := math.Ldexp(float64(hi), 64-fixShift) + math.Ldexp(float64(lo), -fixShift)
	if neg {
		f = -f
	}
	return f
}

package stats

import (
	"errors"

	"unbiasedfl/internal/tensor"
)

// Exponential draws n samples from an exponential distribution with the
// given mean. The paper's Table I setups draw the per-client local cost
// parameter c_n and intrinsic value v_n this way ("c and v following
// exponential distribution among clients").
//
// Sample i is mean·ExpFloat64() of the i-th of n successive calls, bit for
// bit, and r is left where those calls leave it. It works in three passes: a
// walk of the stream that keeps each 1 − u, with the state words in locals;
// tensor.LogSlice, four values at a time on an AVX2 host; and mean·(−Log).
// (u < 1 always, so ExpFloat64's guard never fires.)
func Exponential(r *RNG, n int, mean float64) ([]float64, error) {
	if n < 0 {
		return nil, errors.New("stats: negative sample count")
	}
	if mean < 0 {
		return nil, errors.New("stats: negative mean")
	}
	out := make([]float64, n)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range out {
		var x uint64
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		out[i] = 1 - unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	tensor.LogSlice(out)
	for i, l := range out {
		out[i] = mean * -l
	}
	return out, nil
}

// PowerLawSizes partitions total items across n parts following a power-law
// (Zipf-like) profile with exponent s, matching the paper's "unbalanced
// power-law distribution" of per-client data sizes. Each part receives at
// least minPer items; the remainder is distributed proportionally to
// rank^(-s) with ranks shuffled so client index does not correlate with size.
func PowerLawSizes(r *RNG, n, total, minPer int, s float64) ([]int, error) {
	switch {
	case n <= 0:
		return nil, errors.New("stats: need at least one part")
	case minPer < 0:
		return nil, errors.New("stats: negative minimum size")
	case total < n*minPer:
		return nil, errors.New("stats: total too small for minimum sizes")
	case s < 0:
		return nil, errors.New("stats: negative power-law exponent")
	}
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = tensor.Exp(-s * tensor.Log(float64(i+1)))
		sum += weights[i]
	}
	// Shuffle so the heavy clients are at random indices.
	r.Shuffle(n, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })

	rest := total - n*minPer
	sizes := make([]int, n)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(rest) * weights[i] / sum)
		assigned += sizes[i]
	}
	// Hand out rounding leftovers one at a time, largest-weight first.
	for i := 0; assigned < rest; i = (i + 1) % n {
		sizes[i]++
		assigned++
	}
	for i := range sizes {
		sizes[i] += minPer
	}
	return sizes, nil
}

// LogNormal draws n samples with the given median and sigma of the
// underlying normal. Used by the hardware-prototype timing model for
// heterogeneous per-client compute and communication times. Sample i is
// Exp(Log(median) + σ·z_i), the product rounded before the add, with z_i
// the i-th of n NormFloat64 draws; the exponentials run through
// tensor.ExpSlice.
func LogNormal(r *RNG, n int, median, sigma float64) ([]float64, error) {
	if n < 0 {
		return nil, errors.New("stats: negative sample count")
	}
	if median <= 0 {
		return nil, errors.New("stats: non-positive median")
	}
	mu := tensor.Log(median)
	out := make([]float64, n)
	r.NormFloat64s(out)
	for i, z := range out {
		out[i] = mu + float64(sigma*z)
	}
	tensor.ExpSlice(out)
	return out, nil
}

// UniformRange draws n samples uniformly from [lo, hi).
func UniformRange(r *RNG, n int, lo, hi float64) ([]float64, error) {
	if n < 0 {
		return nil, errors.New("stats: negative sample count")
	}
	if hi < lo {
		return nil, errors.New("stats: inverted range")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.Float64()
	}
	return out, nil
}

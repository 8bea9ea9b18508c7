package stats

import (
	"errors"

	"unbiasedfl/internal/tensor"
)

// Exponential draws n samples from an exponential distribution with the
// given mean. The paper's Table I setups draw the per-client local cost
// parameter c_n and intrinsic value v_n this way ("c and v following
// exponential distribution among clients").
func Exponential(r *RNG, n int, mean float64) ([]float64, error) {
	if n < 0 {
		return nil, errors.New("stats: negative sample count")
	}
	if mean < 0 {
		return nil, errors.New("stats: negative mean")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = mean * r.ExpFloat64()
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
// heterogeneous per-client compute and communication times.
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
		out[i] = tensor.Exp(mu + float64(sigma*z))
	}
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

package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Std returns the sample standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errors.New("stats: min/max of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty slice")
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile level out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Welford accumulates streaming mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// Count returns the number of observations so far.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// State exposes the accumulator's full internal state (count, mean, sum of
// squared deviations) so checkpoints can persist a stream of observations
// mid-flight.
func (w *Welford) State() (count int, mean, m2 float64) { return w.n, w.mean, w.m2 }

// RestoreWelford reconstructs an accumulator from a State triple.
func RestoreWelford(count int, mean, m2 float64) (Welford, error) {
	if count < 0 {
		return Welford{}, errors.New("stats: negative Welford count")
	}
	return Welford{n: count, mean: mean, m2: m2}, nil
}

// KendallTau returns the Kendall rank-correlation coefficient between two
// paired samples in [-1, 1]: +1 means the orderings agree perfectly. Ties
// count as discordant-neutral (tau-a). It is used to quantify how well the
// Theorem-1 bound ranks actual training outcomes.
func KendallTau(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: paired samples of different lengths")
	}
	n := len(x)
	if n < 2 {
		return 0, errors.New("stats: need at least two pairs")
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			switch {
			case dx*dy > 0:
				concordant++
			case dx*dy < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// SeriesMean averages several equally-long series point-wise; it is used to
// average loss/accuracy trajectories over independent runs as the paper does
// ("we average each experiment over 20 independent runs").
func SeriesMean(series [][]float64) ([]float64, error) {
	if len(series) == 0 {
		return nil, errors.New("stats: no series")
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) != n {
			return nil, errors.New("stats: ragged series")
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for i, v := range s {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out, nil
}

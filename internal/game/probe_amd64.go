package game

import "unbiasedfl/internal/tensor"

//go:noescape
func spendAVX2(q, coef, gain, c, v, terms *float64, groups int, u, qMin, qMax, spend float64) (done int, sum float64)

// spendVector runs probeRange's body for λ > 0 (u = 1/λ) on the leading
// groups of four clients on the vector kernel in probe_amd64.s, up to the
// first group it declines — one where a client with slack > 0 takes one of
// Cbrt's special branches (x zero, subnormal, negative, Inf or NaN) or whose
// spend term is NaN — and returns how many clients it finished, a multiple of
// 4 and 0 without AVX2, and the spend after them. The slices are probeRange's:
// coef, gain, c and v as long as q, terms nil or as long.
func spendVector(q, coef, gain, c, v, terms []float64, u, qMin, qMax, spend float64) (int, float64) {
	if !tensor.HasAVX2 || len(q) < 4 {
		return 0, spend
	}
	last := len(q) - 1 // the kernel reads as many of each, and stores as many terms
	_, _, _, _ = coef[last], gain[last], c[last], v[last]
	var t *float64
	if terms != nil {
		_, t = terms[last], &terms[0]
	}
	done, spend := spendAVX2(&q[0], &coef[0], &gain[0], &c[0], &v[0], t, len(q)/4, u, qMin, qMax, spend)
	return 4 * done, spend
}

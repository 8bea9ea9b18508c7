package fixpoint

import "unbiasedfl/internal/tensor"

//go:noescape
func foldAVX2(scale, factor float64, w, base *float64, d0, d1, d2 *int64, n int) bool

// foldVector folds the leading whole blocks of four parameters on the vector
// kernel in fold_amd64.s and returns how many parameters that covered — 0 on a
// CPU without AVX2 — and whether one of them saturated. The slices have passed
// AddScaledDiff's length check. Blocks may not overlap to reach a ragged end,
// as the tensor kernels' do: accumulation is not idempotent.
func foldVector(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) (n int, sat bool) {
	n = len(d0) &^ 3
	if !tensor.HasAVX2 || n == 0 {
		return 0, false
	}
	return n, foldAVX2(scale, factor, &w[0], &g[0], &d0[0], &d1[0], &d2[0], n)
}

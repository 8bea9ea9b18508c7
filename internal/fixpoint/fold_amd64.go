package fixpoint

import "unbiasedfl/internal/tensor"

//go:noescape
func foldAVX2(scale float64, delta *float64, lo, hi *uint64, n int) bool

// foldVector folds the leading whole blocks of four parameters on the vector
// kernel in fold_amd64.s and returns how many parameters that covered — 0 on a
// CPU without AVX2 — and whether one of them saturated. The slices have passed
// AddScaled's length check. Blocks may not overlap to reach a ragged end, as
// the tensor kernels' do: accumulation is not idempotent.
func foldVector(scale float64, delta tensor.Vec, lo, hi []uint64) (n int, sat bool) {
	n = len(lo) &^ 3
	if !tensor.HasAVX2 || n == 0 {
		return 0, false
	}
	return n, foldAVX2(scale, &delta[0], &lo[0], &hi[0], n)
}

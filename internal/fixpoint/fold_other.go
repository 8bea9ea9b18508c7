//go:build !amd64

package fixpoint

import "unbiasedfl/internal/tensor"

// Only amd64 has a vector fold; everywhere else addScaledDiffPortable is the
// implementation.
func foldVector(scale, factor float64, w, g tensor.Vec, d0, d1, d2 []int64) (n int, sat bool) {
	return 0, false
}

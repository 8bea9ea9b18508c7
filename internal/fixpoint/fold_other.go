//go:build !amd64

package fixpoint

import "unbiasedfl/internal/tensor"

// Only amd64 has a vector fold; everywhere else addScaledPortable is the
// implementation.
func foldVector(scale float64, delta tensor.Vec, lo, hi []uint64) (n int, sat bool) {
	return 0, false
}

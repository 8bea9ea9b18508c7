//go:build !amd64

package tensor

// HasAVX2 is false off amd64: only amd64 has vector kernels, everywhere else
// the portable kernels are the implementation.
const HasAVX2 = false

func logitsVector(xs [][]float64, w, bias Vec, dim, classes int, out Vec) bool { return false }

func addScaledTMulVector(s float64, xs [][]float64, p Vec, classes, dim int, g Vec) bool {
	return false
}

func softmaxVector(p Vec, rows, cols int, maxes, sums Vec) int { return 0 }

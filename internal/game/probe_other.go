//go:build !amd64

package game

// Only amd64 has a vector spend probe; everywhere else probeRange's Go loop
// is the implementation.
func spendVector(q, coef, gain, c, v, terms []float64, u, qMin, qMax, spend float64) (int, float64) {
	return 0, spend
}

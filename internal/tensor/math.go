package tensor

import "errors"

// LogSumExp writes log Σ_j exp(p[i*cols+j]) of each row i of the rows×cols
// matrix stored row-major in p into out[i], computed stably, and leaves p
// overwritten with the shifted exponentials. Operation order, per row: m and
// the shifted exponentials e_j = Exp(p_j − m) exactly as in SoftmaxRows, and
// out[i] = m + Log(Σ_j e_j) with the sum taken j ascending from +0.
func LogSumExp(p Vec, rows, cols int, out Vec) error {
	if rows < 0 || cols <= 0 {
		return errors.New("tensor: non-positive shape in LogSumExp")
	}
	if len(p) != rows*cols || len(out) != rows {
		return errors.New("tensor: length mismatch in LogSumExp")
	}
	for i := range out {
		out[i] = shiftByMax(p[i*cols : (i+1)*cols])
	}
	expInPlace(p)
	for i := range out {
		out[i] += Log(sumAscending(p[i*cols : (i+1)*cols]))
	}
	return nil
}

// ArgMax returns the index of the maximum element (first on ties).
func ArgMax(xs Vec) (int, error) {
	if len(xs) == 0 {
		return 0, errors.New("tensor: ArgMax of empty vector")
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best, nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

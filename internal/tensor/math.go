package tensor

import "errors"

// LogSumExp writes log Σ_j exp(p[i*cols+j]) of each row i of the rows×cols
// matrix stored row-major in p into out[i], computed stably, and leaves p
// overwritten with the shifted exponentials. Operation order, per row: m and
// the shifted exponentials e_j = Exp(p_j − m) exactly as in SoftmaxRows, and
// out[i] = m + Log(Σ_j e_j) with the sum taken j ascending from +0. The
// maxima, exponentials and sums run on SoftmaxRows's vector kernel where it
// does.
func LogSumExp(p Vec, rows, cols int, out Vec) error {
	if rows < 0 || cols <= 0 {
		return errors.New("tensor: non-positive shape in LogSumExp")
	}
	if len(p) != rows*cols || len(out) != rows {
		return errors.New("tensor: length mismatch in LogSumExp")
	}
	var sums [64]float64 // the kernel's row sums, one chunk of rows at a time
	for i := 0; i < rows; i += 4 {
		// The kernel, len(sums) rows per call, up to a group it declines or
		// the last rows mod 4; then the Go code on those (at most four) rows.
		for {
			n := min(rows-i, len(sums))
			k := softmaxVector(p[i*cols:(i+n)*cols], n, cols, out[i:i+n], sums[:n])
			for r, s := range sums[:k] {
				out[i+r] += Log(s)
			}
			i += k
			if k < len(sums) {
				break
			}
		}
		end := min(i+4, rows)
		logSumExpPortable(p[i*cols:end*cols], cols, out[i:end])
	}
	return nil
}

// logSumExpPortable is LogSumExp on the Go code, for every row of p.
func logSumExpPortable(p Vec, cols int, out Vec) {
	for i := range out {
		m, sum := shiftExpSum(p[i*cols : (i+1)*cols])
		out[i] = m + Log(sum)
	}
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

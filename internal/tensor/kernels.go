package tensor

import "errors"

// This file implements the kernels behind the batched gradient path: X·Wᵀ
// products over row-sliced inputs, row-wise softmax, and the Pᵀ·X gradient
// accumulation. All kernels are allocation-free: callers provide every buffer.
//
// The order of floating-point operations behind each output element of
// LogitsBatch, SoftmaxRows and AddScaledTMul is a contract, stated in their
// comments (and, for the exponentials of SoftmaxRows, on Exp): the golden
// traces, the bit-identity of the two backends and of a federation whose
// hosts have different CPUs all rest on it. Two implementations honour it.
// The portable Go kernels below run everywhere; they process four matrix rows
// and two samples per pass, which reuses each loaded element and keeps several
// independent add chains in flight. Every product in them that feeds an
// addition is rounded by an explicit float64 conversion, which forbids the
// compiler to fuse the two (Go fuses x*y + z on arm64, never on amd64). On
// amd64 with AVX2 (detected once from CPUID, no switch) the regular region of
// LogitsBatch and AddScaledTMul — everything but an odd last class and, for
// LogitsBatch, an odd last sample — and every group of four rows of
// SoftmaxRows run on the kernels of simd_amd64.s instead, whose vector lanes
// carry four independent outputs and perform, per lane, exactly the portable
// code's operations in the portable code's order: no fused multiply-add, no
// sum split across lanes. For the GEMM kernels the lanes are four classes or
// four columns; for SoftmaxRows they are four rows, so that a row's maximum
// and sum stay in one lane, and its maximum is VMAXPD(x, m) — x > m ? x : m,
// the portable comparison, NaN and ±0 included. The portable kernels are the
// reference the vector ones are tested against, bit for bit. MatMulT has no
// vector kernel.

// dotUnrolled returns the inner product of a and b (equal lengths) using four
// independent accumulators.
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// dot4Rows computes four inner products against a shared right-hand side,
// loading each x element once.
func dot4Rows(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for j := 0; j < n; j++ {
		xv := x[j]
		s0 += float64(w0[j] * xv)
		s1 += float64(w1[j] * xv)
		s2 += float64(w2[j] * xv)
		s3 += float64(w3[j] * xv)
	}
	return
}

// dot4Rows2 is the 2×4 micro-kernel: four matrix rows against two shared
// right-hand sides. Each w element is loaded once for two outputs, halving
// the load traffic per flop relative to two dot4Rows passes.
func dot4Rows2(w0, w1, w2, w3, x, y []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64) {
	n := len(x)
	w0, w1, w2, w3, y = w0[:n], w1[:n], w2[:n], w3[:n], y[:n]
	for j := 0; j < n; j++ {
		xv, yv := x[j], y[j]
		r0, r1, r2, r3 := w0[j], w1[j], w2[j], w3[j]
		s0 += float64(r0 * xv)
		s1 += float64(r1 * xv)
		s2 += float64(r2 * xv)
		s3 += float64(r3 * xv)
		t0 += float64(r0 * yv)
		t1 += float64(r1 * yv)
		t2 += float64(r2 * yv)
		t3 += float64(r3 * yv)
	}
	return
}

// mulRowsT computes out[c] = dot(w[c*k:(c+1)*k], x) (+ bias[c] when bias is
// non-nil) for c in [0, rows), four rows at a time.
func mulRowsT(w, bias Vec, k, rows int, x, out []float64) {
	c := 0
	for ; c+3 < rows; c += 4 {
		base := c * k
		s0, s1, s2, s3 := dot4Rows(
			w[base:base+k], w[base+k:base+2*k],
			w[base+2*k:base+3*k], w[base+3*k:base+4*k], x)
		if bias != nil {
			s0 += bias[c]
			s1 += bias[c+1]
			s2 += bias[c+2]
			s3 += bias[c+3]
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < rows; c++ {
		s := dotUnrolled(w[c*k:(c+1)*k], x)
		if bias != nil {
			s += bias[c]
		}
		out[c] = s
	}
}

// MatMulT computes out = a·bᵀ, where a is m×k, b is n×k, and out is m×n.
func MatMulT(a, b, out *Mat) error {
	if a == nil || b == nil || out == nil {
		return errors.New("tensor: nil matrix in MatMulT")
	}
	if a.Cols != b.Cols {
		return errors.New("tensor: inner dimension mismatch in MatMulT")
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		return errors.New("tensor: output shape mismatch in MatMulT")
	}
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		mulRowsT(b.Data, nil, k, b.Rows, a.Data[i*k:(i+1)*k], out.Data[i*out.Cols:(i+1)*out.Cols])
	}
	return nil
}

// LogitsBatch computes the batched affine scores Z = X·Wᵀ + 1·biasᵀ:
// out[i*classes+c] = dot(w[c*dim:(c+1)*dim], xs[i]) + bias[c]. The rows of X
// are the (possibly non-contiguous) slices xs, which lets datasets keep
// per-sample feature vectors without a packing copy. bias may be nil.
//
// Operation order, per output: in the regular region — samples below
// len(xs)&^1, classes below classes&^1 — the products w[c*dim+j]·xs[i][j] are
// added one at a time, j ascending, into a single sum that starts at +0, and
// bias[c] is added last (not at all when bias is nil). An odd last class sums
// into four partial sums by j mod 4 (the remainder of dim into the first),
// combined as (s0+s1)+(s2+s3), then + bias; an odd last sample takes the
// single sum for classes below classes&^3 and the four partial sums for the
// rest. The regular region runs on the vector kernel when dim is a multiple
// of 4 and it holds at least 8 samples and 4 classes.
func LogitsBatch(xs [][]float64, w, bias Vec, dim, classes int, out Vec) error {
	if dim <= 0 || classes <= 0 {
		return errors.New("tensor: non-positive shape in LogitsBatch")
	}
	if len(w) != classes*dim {
		return errors.New("tensor: weight length mismatch in LogitsBatch")
	}
	if bias != nil && len(bias) != classes {
		return errors.New("tensor: bias length mismatch in LogitsBatch")
	}
	if len(out) != len(xs)*classes {
		return errors.New("tensor: output length mismatch in LogitsBatch")
	}
	for _, x := range xs {
		if len(x) != dim {
			return errors.New("tensor: input row length mismatch in LogitsBatch")
		}
	}
	from := 0
	if logitsVector(xs, w, bias, dim, classes, out) {
		from = classes &^ 1
	}
	logitsPortable(xs, w, bias, dim, from, classes, out)
	return nil
}

// logitsPortable is LogitsBatch on the Go kernels, scoring the sample pairs
// against classes [from, classes) only (from even) and an odd last sample
// against every class.
func logitsPortable(xs [][]float64, w, bias Vec, dim, from, classes int, out Vec) {
	n := len(xs) &^ 1
	if from < classes {
		for i := 0; i < n; i += 2 {
			mulRows2T(w, bias, dim, from, classes, xs[i], xs[i+1],
				out[i*classes:(i+1)*classes], out[(i+1)*classes:(i+2)*classes])
		}
	}
	if n < len(xs) {
		mulRowsT(w, bias, dim, classes, xs[n], out[n*classes:(n+1)*classes])
	}
}

// mulRows2T scores two samples per pass through the weight rows from c on.
func mulRows2T(w, bias Vec, k, c, rows int, x, y, outX, outY []float64) {
	for ; c+3 < rows; c += 4 {
		base := c * k
		s0, s1, s2, s3, t0, t1, t2, t3 := dot4Rows2(
			w[base:base+k], w[base+k:base+2*k],
			w[base+2*k:base+3*k], w[base+3*k:base+4*k], x, y)
		if bias != nil {
			b0, b1, b2, b3 := bias[c], bias[c+1], bias[c+2], bias[c+3]
			s0 += b0
			s1 += b1
			s2 += b2
			s3 += b3
			t0 += b0
			t1 += b1
			t2 += b2
			t3 += b3
		}
		outX[c], outX[c+1], outX[c+2], outX[c+3] = s0, s1, s2, s3
		outY[c], outY[c+1], outY[c+2], outY[c+3] = t0, t1, t2, t3
	}
	for ; c+1 < rows; c += 2 {
		base := c * k
		s0, s1, t0, t1 := dot2Rows2(w[base:base+k], w[base+k:base+2*k], x, y)
		if bias != nil {
			b0, b1 := bias[c], bias[c+1]
			s0 += b0
			s1 += b1
			t0 += b0
			t1 += b1
		}
		outX[c], outX[c+1] = s0, s1
		outY[c], outY[c+1] = t0, t1
	}
	if c < rows {
		row := w[c*k : (c+1)*k]
		s := dotUnrolled(row, x)
		t := dotUnrolled(row, y)
		if bias != nil {
			s += bias[c]
			t += bias[c]
		}
		outX[c], outY[c] = s, t
	}
}

// dot2Rows2 is the 2×2 tail micro-kernel of mulRows2T. Its loop is written to
// stay within the compiler's inlining budget.
func dot2Rows2(w0, w1, x, y []float64) (s0, s1, t0, t1 float64) {
	w0, w1, y = w0[:len(x)], w1[:len(x)], y[:len(x)]
	for j, xv := range x {
		yv := y[j]
		r0, r1 := w0[j], w1[j]
		s0 += float64(r0 * xv)
		s1 += float64(r1 * xv)
		t0 += float64(r0 * yv)
		t1 += float64(r1 * yv)
	}
	return
}

// SoftmaxRows applies a stable softmax to each row of the rows×cols matrix
// stored row-major in p, in place.
//
// Operation order, per row: m is the row's maximum (the first element, then
// replaced by each later one that is greater); e_j = Exp(p_j − m); the e_j are
// summed one at a time, j ascending, from +0; every e_j is multiplied by
// 1/sum. Where HasAVX2, groups of four rows run on the vector kernel, one row
// per lane; the rows below a multiple of 4 and any group the kernel declines
// (a NaN, or a spread beyond 708) run on the Go code.
func SoftmaxRows(p Vec, rows, cols int) error {
	if rows < 0 || cols <= 0 {
		return errors.New("tensor: non-positive shape in SoftmaxRows")
	}
	if len(p) != rows*cols {
		return errors.New("tensor: length mismatch in SoftmaxRows")
	}
	for i := 0; i < rows; i += 4 {
		// The kernel, up to a group it declines or the last rows mod 4; then
		// the Go code on those (at most four) rows.
		i += softmaxVector(p[i*cols:], rows-i, cols, nil, nil)
		softmaxPortable(p[i*cols:min(i+4, rows)*cols], cols)
	}
	return nil
}

// softmaxPortable is SoftmaxRows on the Go code, for every row of p.
func softmaxPortable(p Vec, cols int) {
	for i := 0; i < len(p); i += cols {
		row := p[i : i+cols]
		_, sum := shiftExpSum(row)
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// shiftExpSum replaces each element x_j of row by Exp(x_j − m), m the row's
// maximum (the first element, then each later one that is greater), and
// returns m and the sum of the new elements, added j ascending from +0: the
// sequence SoftmaxRows and LogSumExp share.
func shiftExpSum(row []float64) (m, sum float64) {
	m = row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	for j, v := range row {
		e := Exp(v - m)
		row[j] = e
		sum += e
	}
	return m, sum
}

// AddScaledTMul accumulates the batched outer-product gradient G += s·Pᵀ·X:
// g[c*dim:(c+1)*dim] += s · Σ_i p[i*classes+c] · xs[i].
//
// Operation order, per element g[c*dim+j], with sp_i = s·p[i*classes+c]
// rounded once: for classes below classes&^1 the samples are taken in
// ascending pairs, g += sp_i·xs[i][j] + sp_{i+1}·xs[i+1][j] (the two products
// added to each other first, then to g), and an odd last sample as
// g += sp_i·xs[i][j]. An odd last class takes the samples four at a time,
// g += ((sp_i·x_i + sp_{i+1}·x_{i+1}) + sp_{i+2}·x_{i+2}) + sp_{i+3}·x_{i+3},
// and the remaining ones singly. The grouping can differ from a naive
// per-sample loop by ~1 ulp per term; it is fixed, so results are fully
// deterministic. The classes below classes&^1 run on the vector kernels when
// dim is a multiple of 4.
func AddScaledTMul(s float64, xs [][]float64, p Vec, classes, dim int, g Vec) error {
	if dim <= 0 || classes <= 0 {
		return errors.New("tensor: non-positive shape in AddScaledTMul")
	}
	if len(p) != len(xs)*classes {
		return errors.New("tensor: probability length mismatch in AddScaledTMul")
	}
	if len(g) != classes*dim {
		return errors.New("tensor: gradient length mismatch in AddScaledTMul")
	}
	for _, x := range xs {
		if len(x) != dim {
			return errors.New("tensor: input row length mismatch in AddScaledTMul")
		}
	}
	from := 0
	if addScaledTMulVector(s, xs, p, classes, dim, g) {
		from = classes &^ 1
	}
	addScaledTMulPortable(s, xs, p, from, classes, dim, g)
	return nil
}

// addScaledTMulPortable is AddScaledTMul on the Go kernels for the gradient
// rows of classes [c, classes), c even.
func addScaledTMulPortable(s float64, xs [][]float64, p Vec, c, classes, dim int, g Vec) {
	for ; c+3 < classes; c += 4 {
		g0 := g[c*dim : (c+1)*dim]
		g1 := g[(c+1)*dim : (c+2)*dim]
		g2 := g[(c+2)*dim : (c+3)*dim]
		g3 := g[(c+3)*dim : (c+4)*dim]
		i := 0
		for ; i+1 < len(xs); i += 2 {
			off, off2 := i*classes+c, (i+1)*classes+c
			axpy4x2(
				s*p[off], s*p[off+1], s*p[off+2], s*p[off+3],
				s*p[off2], s*p[off2+1], s*p[off2+2], s*p[off2+3],
				xs[i], xs[i+1], g0, g1, g2, g3)
		}
		if i < len(xs) {
			off := i*classes + c
			axpy4(s*p[off], s*p[off+1], s*p[off+2], s*p[off+3], xs[i], g0, g1, g2, g3)
		}
	}
	for ; c+1 < classes; c += 2 {
		g0 := g[c*dim : (c+1)*dim]
		g1 := g[(c+1)*dim : (c+2)*dim]
		i := 0
		for ; i+1 < len(xs); i += 2 {
			off, off2 := i*classes+c, (i+1)*classes+c
			axpy2x2(s*p[off], s*p[off+1], s*p[off2], s*p[off2+1],
				xs[i], xs[i+1], g0, g1)
		}
		if i < len(xs) {
			off := i*classes + c
			p0, p1 := s*p[off], s*p[off+1]
			x := xs[i]
			for j, xv := range x {
				g0[j] += float64(p0 * xv)
				g1[j] += float64(p1 * xv)
			}
		}
	}
	if c < classes {
		gr := g[c*dim : (c+1)*dim]
		i := 0
		for ; i+3 < len(xs); i += 4 {
			base := i * classes
			axpy1x4(
				s*p[base+c], s*p[base+classes+c],
				s*p[base+2*classes+c], s*p[base+3*classes+c],
				xs[i], xs[i+1], xs[i+2], xs[i+3], gr)
		}
		for ; i < len(xs); i++ {
			pc := s * p[i*classes+c]
			for j, xv := range xs[i] {
				gr[j] += float64(pc * xv)
			}
		}
	}
}

// axpy4 performs four simultaneous axpy updates sharing one x load stream.
func axpy4(p0, p1, p2, p3 float64, x, g0, g1, g2, g3 []float64) {
	n := len(x)
	g0, g1, g2, g3 = g0[:n], g1[:n], g2[:n], g3[:n]
	for j := 0; j < n; j++ {
		xv := x[j]
		g0[j] += float64(p0 * xv)
		g1[j] += float64(p1 * xv)
		g2[j] += float64(p2 * xv)
		g3[j] += float64(p3 * xv)
	}
}

// axpy4x2 is the 2×4 accumulation micro-kernel: two samples folded into four
// gradient rows per pass, halving the read-modify-write traffic on g per
// accumulated sample.
func axpy4x2(p0, p1, p2, p3, q0, q1, q2, q3 float64, x, y, g0, g1, g2, g3 []float64) {
	n := len(x)
	y, g0, g1, g2, g3 = y[:n], g0[:n], g1[:n], g2[:n], g3[:n]
	for j := 0; j < n; j++ {
		xv, yv := x[j], y[j]
		g0[j] += float64(p0*xv) + float64(q0*yv)
		g1[j] += float64(p1*xv) + float64(q1*yv)
		g2[j] += float64(p2*xv) + float64(q2*yv)
		g3[j] += float64(p3*xv) + float64(q3*yv)
	}
}

// axpy2x2 is the 2×2 tail micro-kernel of AddScaledTMul.
func axpy2x2(p0, p1, q0, q1 float64, x, y, g0, g1 []float64) {
	n := len(x)
	y, g0, g1 = y[:n], g0[:n], g1[:n]
	for j := 0; j < n; j++ {
		xv, yv := x[j], y[j]
		g0[j] += float64(p0*xv) + float64(q0*yv)
		g1[j] += float64(p1*xv) + float64(q1*yv)
	}
}

// axpy1x4 folds four samples into one gradient row per pass.
func axpy1x4(p0, p1, p2, p3 float64, x0, x1, x2, x3, g []float64) {
	n := len(g)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := 0; j < n; j++ {
		g[j] += ((float64(p0*x0[j]) + float64(p1*x1[j])) + float64(p2*x2[j])) + float64(p3*x3[j])
	}
}

package tensor

// HasAVX2 selects the vector kernels in simd_amd64.s — and, read from there,
// internal/fixpoint's fold kernel and internal/game's spend probe: it is the
// module's one CPU-feature probe.
// It is decided once, from what the CPU and OS report; there is no switch.
// Only tests assign to it, false, to run the portable tiers on this host.
var HasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func logitsAVX2(w *float64, dim int, xs *[]float64, n int, bias, out *float64, classes int)

//go:noescape
func addTMul4AVX2(s float64, p *float64, classes int, xs *[]float64, n, dim int, gr *float64)

//go:noescape
func addTMul2AVX2(s float64, p *float64, classes int, xs *[]float64, n, dim int, gr *float64)

//go:noescape
func softmaxAVX2(p *float64, cols, groups int, maxes, sums *float64) int

//go:noescape
func sgdUpdateAVX2(w, grad *float64, n int, mu, lr float64)

//go:noescape
func polarScaleAVX2(u, s *float64, groups int) int

//go:noescape
func expAVX2(x *float64, groups int) int

//go:noescape
func logAVX2(x *float64, groups int) int

// tmulSamples is how many samples one addTMul call takes: its frame holds
// their scaled probabilities.
const tmulSamples = 64

// softmaxVector runs the leading groups of four rows of the rows×cols matrix
// p through the vector kernel, up to the first group it declines (one with a
// NaN, or a spread beyond 708 — ±Inf included), and returns how many rows it
// finished: a multiple of 4, and 0 without AVX2. With sums nil it completes
// their SoftmaxRows; otherwise it leaves their shifted exponentials in p and
// writes each row's maximum to maxes and its sum to sums, for LogSumExp.
func softmaxVector(p Vec, rows, cols int, maxes, sums Vec) int {
	if !HasAVX2 || rows < 4 {
		return 0
	}
	var m, s *float64
	if sums != nil {
		m, s = &maxes[0], &sums[0]
	}
	return 4 * softmaxAVX2(&p[0], cols, rows/4, m, s)
}

// logitsVector computes the regular region of LogitsBatch — the sample pairs
// and the classes below classes&^1 — on the vector kernel and reports whether
// it did. The arguments have passed LogitsBatch's checks. A class or sample
// count that is not a multiple of the kernel's 4 × 8 block is covered by one
// more block ending at the region's edge: the outputs it shares with its
// neighbour are computed twice, identically.
func logitsVector(xs [][]float64, w, bias Vec, dim, classes int, out Vec) bool {
	n, nc := len(xs)&^1, classes&^1
	if !HasAVX2 || n < 8 || nc < 4 || dim%4 != 0 {
		return false
	}
	var b *float64
	for c := 0; c < nc; c += 4 {
		c = min(c, nc-4)
		if bias != nil {
			b = &bias[c]
		}
		logitsAVX2(&w[c*dim], dim, &xs[0], n&^7, b, &out[c], classes)
		if n%8 != 0 {
			logitsAVX2(&w[c*dim], dim, &xs[n-8], 8, b, &out[(n-8)*classes+c], classes)
		}
	}
	return true
}

// addScaledTMulVector accumulates every sample into the gradient rows below
// classes&^1 on the vector kernels and reports whether it did. The arguments
// have passed AddScaledTMul's checks.
func addScaledTMulVector(s float64, xs [][]float64, p Vec, classes, dim int, g Vec) bool {
	nc := classes &^ 1
	if !HasAVX2 || nc == 0 || dim%4 != 0 {
		return false
	}
	for lo := 0; lo < len(xs); lo += tmulSamples {
		n := min(len(xs)-lo, tmulSamples)
		c := 0
		for ; c+4 <= nc; c += 4 {
			addTMul4AVX2(s, &p[lo*classes+c], classes, &xs[lo], n, dim, &g[c*dim])
		}
		if c < nc {
			addTMul2AVX2(s, &p[lo*classes+c], classes, &xs[lo], n, dim, &g[c*dim])
		}
	}
	return true
}

// sgdUpdateVector runs SGDUpdate's leading len(w)&^3 elements on the vector
// kernel and returns how many it did: 0 without AVX2. The arguments have
// passed SGDUpdate's checks.
func sgdUpdateVector(w, g Vec, mu, lr float64) int {
	n := len(w) &^ 3
	if !HasAVX2 || n == 0 {
		return 0
	}
	sgdUpdateAVX2(&w[0], &g[0], n, mu, lr)
	return n
}

// polarScaleVector runs PolarScale's leading groups of four elements through
// the vector kernel, up to the first group it declines (one holding an s
// outside [2⁻¹⁰²², 1)), and returns how many elements it finished: a
// multiple of 4, and 0 without AVX2.
func polarScaleVector(u, s Vec) int {
	if !HasAVX2 || len(u) < 4 {
		return 0
	}
	return 4 * polarScaleAVX2(&u[0], &s[0], len(u)/4)
}

// expVector runs ExpSlice's leading groups of four elements through the
// vector kernel, up to the first group it declines (one holding an x with
// |x| not ≤ 708), and returns how many elements it finished: a multiple of
// 4, and 0 without AVX2.
func expVector(x Vec) int {
	if !HasAVX2 || len(x) < 4 {
		return 0
	}
	return 4 * expAVX2(&x[0], len(x)/4)
}

// logVector runs LogSlice's leading groups of four elements through the
// vector kernel, up to the first group it declines (one holding an x that is
// not a finite positive normal number), and returns how many elements it
// finished: a multiple of 4, and 0 without AVX2.
func logVector(x Vec) int {
	if !HasAVX2 || len(x) < 4 {
		return 0
	}
	return 4 * logAVX2(&x[0], len(x)/4)
}

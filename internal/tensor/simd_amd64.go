package tensor

// HasAVX2 selects the vector kernels in simd_amd64.s — and, read from there,
// internal/fixpoint's fold kernel: it is the module's one CPU-feature probe.
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
func expAVX2(p *float64, n int) int

// tmulSamples is how many samples one addTMul call takes: its frame holds
// their scaled probabilities.
const tmulSamples = 64

// expVector replaces the leading len(v)&^3 elements of v by their Exp on the
// vector kernel and returns how many it replaced: len(v)&^3, or 0 without
// AVX2. A block of four that the kernel stops at (a lane beyond |x| ≤ 708, or
// NaN) goes through Exp, and the kernel resumes after it.
func expVector(v []float64) int {
	n := len(v) &^ 3
	if !HasAVX2 {
		return 0
	}
	for i := 0; i < n; i += 4 {
		i += expAVX2(&v[i], n-i)
		if i == n {
			break
		}
		for j := i; j < i+4; j++ {
			v[j] = Exp(v[j])
		}
	}
	return n
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

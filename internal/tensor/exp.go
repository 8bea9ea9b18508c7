package tensor

import (
	"errors"
	"math"
)

// Exp and Log are the module's exponential and natural logarithm: every value
// that reaches a model, a priced game or a trace is computed with them, never
// with math.Exp or math.Log. The standard library's are assembly on amd64 and
// arm64, and differ by host — math.Exp on amd64 takes a fused multiply-add
// path or not depending on the CPU it finds at run time — so a result computed
// with them depends on the machine that computed it. These two are the FreeBSD
// msun algorithms as Go's math/exp.go and math/log.go write them, in plain Go,
// with every product that feeds an addition rounded by an explicit float64
// conversion: the language forbids fusing such a product, so no compiler, on
// any platform or GOAMD64 level, may turn the sequence below into a
// different one. Both stay within 1 ulp of the correctly rounded result
// (TestExpAccuracy, TestLogAccuracy).

const (
	ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	log2e = 1.44269504088896338700e+00

	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 0x1p-28
	// expNormal bounds the inputs whose result y·2^k is a normal number, so
	// that the scaling is an integer add to y's exponent field.
	expNormal = 708

	expP1 = 1.66666666666666657415e-01  // 0x3fc5555555555555
	expP2 = -2.77777777770155933842e-03 // 0xbf66c16c16bebd93
	expP3 = 6.61375632143793436117e-05  // 0x3f11566aaf25de2c
	expP4 = -1.65339022054652515390e-06 // 0xbebbbd41c5d26bf1
	expP5 = 4.13813679705723846039e-08  // 0x3e66376972bea4d0

	logL1 = 6.666666666666735130e-01 // 0x3fe5555555555593
	logL2 = 3.999999999940941908e-01 // 0x3fd999999997fa04
	logL3 = 2.857142874366239149e-01 // 0x3fd2492494229359
	logL4 = 2.222219843214978396e-01 // 0x3fcc71c51d8e78af
	logL5 = 1.818357216161805012e-01 // 0x3fc7466496cb03de
	logL6 = 1.531383769920937332e-01 // 0x3fc39a09d078c69f
	logL7 = 1.479819860511658591e-01 // 0x3fc2f112df3e5244
)

// Exp returns e**x. Exp(NaN) = NaN, Exp(+Inf) = +Inf, x > 709.78… gives +Inf,
// x < −745.13… (−Inf included) gives 0 and |x| < 2⁻²⁸ gives 1 + x. Every
// other x is computed by this sequence, each step one IEEE double operation
// rounded to nearest:
//
//	k  = trunc(Log2e·x − 0.5) for x < 0, trunc(Log2e·x + 0.5) for x > 0
//	hi = x − k·Ln2Hi
//	lo = k·Ln2Lo
//	r  = hi − lo
//	t  = r·r
//	c  = r − t·(P1 + t·(P2 + t·(P3 + t·(P4 + t·P5))))
//	y  = 1 − ((lo − (r·c)/(2 − c)) − hi)
//
// and the result is y·2^k: for |x| ≤ 708, where it is a normal number, by
// adding k to the exponent field of y's bits; beyond, by math.Ldexp. The
// vector kernels under SoftmaxRows, LogSumExp and ExpSlice perform exactly
// this sequence in each of their lanes.
func Exp(x float64) float64 {
	if a := math.Abs(x); a <= expNormal {
		if a < expNearZero {
			return 1 + x
		}
		y, k := expReduce(x)
		return math.Float64frombits(math.Float64bits(y) + uint64(k)<<52)
	}
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	}
	y, k := expReduce(x)
	return math.Ldexp(y, k)
}

// expReduce is Exp's sequence up to y = e^(x − k·ln 2), for 2⁻²⁸ ≤ |x| ≤
// 745.2.
func expReduce(x float64) (y float64, k int) {
	// Adding −0.5 is subtracting 0.5: one rounding, the same bits.
	k = int(float64(log2e*x) + math.Copysign(0.5, x))
	kf := float64(k)
	hi := x - float64(kf*ln2Hi)
	lo := float64(kf * ln2Lo)
	r := hi - lo
	t := r * r
	c := r - float64(t*(expP1+float64(t*(expP2+float64(t*(expP3+float64(t*(expP4+float64(t*expP5)))))))))
	return 1 - ((lo - r*c/(2-c)) - hi), k
}

// Log returns the natural logarithm of x. Log(+Inf) = +Inf, Log(0) = −Inf,
// Log(x < 0) = NaN, Log(NaN) = NaN. Every other x is split exactly as
// x = f1·2^ki with f1 in [1/2, 1), as math.Frexp splits it, f1 doubled and ki
// decremented when f1 < √2/2, and then, each step one IEEE double operation
// rounded to nearest:
//
//	f  = f1 − 1,  k = ki
//	s  = f/(2 + f),  s2 = s·s,  s4 = s2·s2
//	t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
//	t2 = s4·(L2 + s4·(L4 + s4·L6))
//	R  = t1 + t2
//	hfsq = (0.5·f)·f
//	Log(x) = k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
//
// This is also the sequence of math.Log's amd64 assembly, which gives the
// same bits for every positive normal x (and wrong ones for subnormals), and
// of the vector kernels under LogSlice and PolarScale, in each of their
// lanes.
func Log(x float64) float64 {
	u := math.Float64bits(x)
	if u-minNormalBits >= infBits-minNormalBits {
		return logOffNormal(x)
	}
	return logSplit(math.Float64frombits(u&fracMask|halfBits), int(u>>52)-1022)
}

const (
	minNormalBits = 0x0010000000000000
	infBits       = 0x7ff0000000000000
	halfBits      = 0x3fe0000000000000
	fracMask      = 1<<52 - 1
)

// logOffNormal is Log for every x that is not a positive normal number.
func logOffNormal(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	return logSplit(math.Frexp(x))
}

// logSplit is Log's sequence from x = f1·2^ki on. The doubling of f1 is an
// add to its exponent field, and is chosen without a branch: which way it
// goes is a coin toss for many callers' inputs.
func logSplit(f1 float64, ki int) float64 {
	d := 0
	if f1 < math.Sqrt2/2 {
		d = 1
	}
	f := math.Float64frombits(math.Float64bits(f1)+uint64(d)<<52) - 1
	k := float64(ki - d)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (logL1 + float64(s4*(logL3+float64(s4*(logL5+float64(s4*logL7)))))))
	t2 := float64(s4 * (logL2 + float64(s4*(logL4+float64(s4*logL6)))))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// ExpSlice sets each x[i] to Exp(x[i]). On amd64 with AVX2 every group of
// four elements whose values all lie in [−708, 708] runs on a vector kernel
// that performs Exp's sequence in each lane, the kernel SoftmaxRows uses;
// every other group, the len mod 4 tail and every element without AVX2 take
// the Go loop, which is also the reference. The bits are the same either
// way.
func ExpSlice(x Vec) {
	for i := 0; i < len(x); i += 4 {
		i += expVector(x[i:])
		for j := i; j < min(i+4, len(x)); j++ {
			x[j] = Exp(x[j])
		}
	}
}

// LogSlice sets each x[i] to Log(x[i]). On amd64 with AVX2 every group of
// four elements that are all finite positive normal numbers runs on a vector
// kernel that performs Log's sequence in each lane, the sequence of
// PolarScale's kernel; every other group, the len mod 4 tail and every
// element without AVX2 take the Go loop, which is also the reference. The
// bits are the same either way.
func LogSlice(x Vec) {
	for i := 0; i < len(x); i += 4 {
		i += logVector(x[i:])
		for j := i; j < min(i+4, len(x)); j++ {
			x[j] = Log(x[j])
		}
	}
}

// PolarScale sets each u[i] to u[i]·√(−2·Log(s[i])/s[i]): the transform of
// Marsaglia's polar method, which turns an accepted pair's u and s =
// u² + v² into a standard normal variate. Each element is
//
//	u·Sqrt((−2·Log(s))/s)
//
// with Log's sequence and each step one IEEE double operation rounded to
// nearest. On amd64 with AVX2 every group of four elements whose s values
// all lie in [2⁻¹⁰²², 1) — positive normal numbers below 1, as every s the
// polar method accepts is — runs on a vector kernel that performs this
// sequence in each lane; every other group, the len mod 4 tail and every
// element without AVX2 take the Go loop, which is also the reference. The
// bits are the same either way.
func PolarScale(u, s Vec) error {
	if len(s) != len(u) {
		return errors.New("tensor: length mismatch in PolarScale")
	}
	for i := 0; i < len(u); i += 4 {
		// The kernel, up to a group it declines or the last len mod 4; then
		// the Go loop on those (at most four) elements.
		i += polarScaleVector(u[i:], s[i:])
		polarScalePortable(u[i:min(i+4, len(u))], s[i:])
	}
	return nil
}

// polarScalePortable is PolarScale on the Go loop, for every element of u.
func polarScalePortable(u, s Vec) {
	s = s[:len(u)]
	for i, si := range s {
		u[i] = float64(u[i] * math.Sqrt(-2*Log(si)/si))
	}
}

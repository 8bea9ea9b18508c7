package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// The vector kernels are held to the portable ones bit for bit: every case
// below runs the exported entry points (vector path where the CPU and the
// shape allow) and the portable kernels called directly, and compares the
// results with math.Float64bits.

// guard is the word written around every carved slice; a kernel that stores
// past its output, or a test that carves wrongly, changes one.
var guard = math.Float64frombits(0x7ff8dead_beef_cafe)

// carved is a slice cut out of a larger backing array filled with guard
// words.
type carved struct {
	backing []float64
	lo, n   int
}

// carve returns n floats starting at an odd index of their backing array, so
// they are 8- but not 32-byte aligned within the allocation, with guard words
// on both sides — or, with toEnd, ending exactly where the backing array does.
func carve(n int, toEnd bool) ([]float64, carved) {
	c := carved{backing: make([]float64, n+6), lo: 3, n: n}
	if toEnd {
		c = carved{backing: make([]float64, n+1), lo: 1, n: n}
	}
	for i := range c.backing {
		c.backing[i] = guard
	}
	return c.backing[c.lo : c.lo+n : c.lo+n], c
}

func (c carved) intact() bool {
	for i, v := range c.backing {
		if (i < c.lo || i >= c.lo+c.n) && math.Float64bits(v) != math.Float64bits(guard) {
			return false
		}
	}
	return true
}

// kernelCase is one input to both kernels, every buffer carved.
type kernelCase struct {
	n, classes, dim int
	s               float64
	xs              [][]float64
	w, bias, p, g   Vec
	carved          []carved
}

var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// value draws a float of magnitude e^-9 … e^9 and either sign, or, with
// probability special, one of the edge values above.
func (r *kernelRNG) value(special float64) float64 {
	if (r.next()+1)/2 < special {
		return specials[int((r.next()+1)/2*float64(len(specials)))%len(specials)]
	}
	return r.next() * math.Exp(9*r.next())
}

func newKernelCase(r *kernelRNG, n, classes, dim int, withBias bool, special float64) *kernelCase {
	kc := &kernelCase{n: n, classes: classes, dim: dim, s: r.value(0), xs: make([][]float64, n)}
	cut := func(n int, toEnd bool) []float64 {
		v, c := carve(n, toEnd)
		for i := range v {
			v[i] = r.value(special)
		}
		kc.carved = append(kc.carved, c)
		return v
	}
	for i := range kc.xs {
		kc.xs[i] = cut(dim, i%3 == 2)
	}
	kc.w = cut(classes*dim, false)
	kc.p = cut(n*classes, true)
	kc.g = cut(classes*dim, n%2 == 1)
	if withBias {
		kc.bias = cut(classes, classes%2 == 1)
	}
	return kc
}

// overlay writes raw float64 bit patterns over the case's values, in the
// order w, bias, xs rows, p, g, until raw runs out.
func (kc *kernelCase) overlay(raw []byte) {
	targets := append([][]float64{kc.w, kc.bias}, kc.xs...)
	targets = append(targets, kc.p, kc.g)
	for _, v := range targets {
		for i := range v {
			if len(raw) < 8 {
				return
			}
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
	}
}

func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.IsNaN(want[i]) {
			// NaN payloads follow operand order, which IEEE leaves open.
			if !math.IsNaN(got[i]) {
				return i, false
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// check runs both kernels on kc through the exported functions and on the
// portable kernels, fails t on any differing bit or disturbed neighbour, and
// reports which of the two took the vector path.
func (kc *kernelCase) check(t *testing.T) (vecLogits, vecGrad bool) {
	t.Helper()
	n, classes, dim := kc.n, kc.classes, kc.dim
	out, outCarved := carve(n*classes, false)
	want := NewVec(n * classes)
	if err := LogitsBatch(kc.xs, kc.w, kc.bias, dim, classes, out); err != nil {
		t.Fatal(err)
	}
	logitsPortable(kc.xs, kc.w, kc.bias, dim, 0, classes, want)
	if i, ok := sameBits(out, want); !ok {
		t.Fatalf("LogitsBatch n=%d classes=%d dim=%d bias=%v: out[%d] = %x (%v), portable %x (%v)",
			n, classes, dim, kc.bias != nil, i, math.Float64bits(out[i]), out[i], math.Float64bits(want[i]), want[i])
	}
	if !outCarved.intact() {
		t.Fatalf("LogitsBatch n=%d classes=%d dim=%d wrote outside out", n, classes, dim)
	}

	wantG := kc.g.Clone()
	addScaledTMulPortable(kc.s, kc.xs, kc.p, 0, classes, dim, wantG)
	probe := kc.g.Clone()
	if err := AddScaledTMul(kc.s, kc.xs, kc.p, classes, dim, kc.g); err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(kc.g, wantG); !ok {
		t.Fatalf("AddScaledTMul n=%d classes=%d dim=%d: g[%d] = %x (%v), portable %x (%v)",
			n, classes, dim, i, math.Float64bits(kc.g[i]), kc.g[i], math.Float64bits(wantG[i]), wantG[i])
	}
	for i, c := range kc.carved {
		if !c.intact() {
			t.Fatalf("n=%d classes=%d dim=%d: a kernel wrote outside buffer %d (xs rows, w, p, g, bias)", n, classes, dim, i)
		}
	}

	// The dispatch itself says whether a shape is vectorised; asking it, not
	// re-deriving its rule, is what catches a dispatch that always declines.
	vecLogits = logitsVector(kc.xs, kc.w, kc.bias, dim, classes, want)
	vecGrad = addScaledTMulVector(kc.s, kc.xs, kc.p, classes, dim, probe)
	if HasAVX2 {
		// The shapes the kernels' comments promise to vectorise.
		wantLogits := dim%4 == 0 && n&^1 >= 8 && classes&^1 >= 4
		wantGrad := dim%4 == 0 && classes >= 2
		if vecLogits != wantLogits || vecGrad != wantGrad {
			t.Fatalf("n=%d classes=%d dim=%d: vector path taken by logits %v (want %v), gradient %v (want %v)",
				n, classes, dim, vecLogits, wantLogits, vecGrad, wantGrad)
		}
	}
	return vecLogits, vecGrad
}

func skipWithoutAVX2(t testing.TB) {
	if !HasAVX2 {
		t.Skip("no vector kernels to compare: the CPU lacks AVX2, the OS does not save YMM state, or GOARCH is not amd64")
	}
}

// kernelTable holds the shapes the program runs — the three benchmark
// workloads' SGD steps, the 784×10 benchTask, evaluation chunks — and the
// sample counts around the kernels' block edges.
var kernelTable = []struct{ n, classes, dim int }{
	{8, 10, 60}, {24, 10, 64}, {8, 26, 64}, {24, 10, 784},
	{1, 10, 64}, {2, 10, 64}, {3, 10, 64}, {7, 10, 64}, {8, 10, 64},
	{255, 10, 64}, {256, 10, 64}, {512, 10, 64}, {512, 26, 64}, {512, 10, 60},
}

func TestVectorKernelsBitIdentical(t *testing.T) {
	skipWithoutAVX2(t)
	r := &kernelRNG{s: 18}
	for _, shape := range kernelTable {
		for _, withBias := range []bool{true, false} {
			kc := newKernelCase(r, shape.n, shape.classes, shape.dim, withBias, 0)
			vecLogits, vecGrad := kc.check(t)
			if !vecGrad || (!vecLogits && shape.n >= 8) {
				t.Errorf("n=%d classes=%d dim=%d fell back to the portable kernels (logits vector %v, gradient vector %v)",
					shape.n, shape.classes, shape.dim, vecLogits, vecGrad)
			}
		}
	}

	const cases = 20000
	var tookLogits, tookGrad int
	for i := 0; i < cases; i++ {
		unit := func() float64 { return (r.next() + 1) / 2 }
		n, classes, dim := 1+int(unit()*40), 1+int(unit()*30), 1+int(unit()*70)
		if i%2 == 0 {
			dim = (dim + 3) &^ 3 // half the cases on a dim the vector path takes
		}
		special := []float64{0, 0, 0.02, 0.3}[i%4]
		vecLogits, vecGrad := newKernelCase(r, n, classes, dim, i%3 != 0, special).check(t)
		if vecLogits {
			tookLogits++
		}
		if vecGrad {
			tookGrad++
		}
	}
	t.Logf("%d random shapes: LogitsBatch vectorised on %d, AddScaledTMul on %d", cases, tookLogits, tookGrad)
	if tookLogits < cases/4 || tookGrad < cases/4 {
		t.Fatalf("vector path taken on too few of %d shapes: logits %d, gradient %d", cases, tookLogits, tookGrad)
	}
}

// TestVectorKernelsStayInBounds walks every small shape around the kernels'
// block edges (8 samples, 4 and 2 classes, 4 columns, 64-sample chunks): the
// assembly stores through raw pointers, so each case's buffers are carved out
// of guard words (see carve) and check fails on a disturbed neighbour as well
// as on a differing bit. It runs, trivially, on the portable path too.
func TestVectorKernelsStayInBounds(t *testing.T) {
	for _, toEnd := range []bool{false, true} {
		_, c := carve(4, toEnd)
		if !c.intact() {
			t.Fatal("fresh carve reads as disturbed")
		}
		c.backing[c.lo-1] = 0
		if c.intact() {
			t.Fatal("a write before the slice went unnoticed")
		}
	}
	_, c := carve(4, false)
	c.backing[c.lo+c.n] = 0
	if c.intact() {
		t.Fatal("a write after the slice went unnoticed")
	}
	r := &kernelRNG{s: 19}
	for _, dim := range []int{4, 8, 12, 5} {
		for classes := 1; classes <= 9; classes++ {
			for _, n := range []int{1, 2, 3, 7, 8, 9, 10, 15, 16, 17, 63, 64, 65, 66, 129} {
				newKernelCase(r, n, classes, dim, (n+classes)%2 == 0, 0).check(t)
			}
		}
	}
}

// FuzzKernelsMatchPortable: fuzzed shape, seed and raw value bits, same
// comparison.
func FuzzKernelsMatchPortable(f *testing.F) {
	for i, shape := range kernelTable {
		f.Add(uint16(shape.n), uint16(shape.classes), uint16(shape.dim), i%2 == 0, uint64(i), []byte(nil))
	}
	f.Add(uint16(9), uint16(7), uint16(12), true, uint64(99), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))))
	f.Fuzz(func(t *testing.T, n, classes, dim uint16, withBias bool, seed uint64, raw []byte) {
		skipWithoutAVX2(t)
		samples, rows, cols := 1+int(n-1)%512, 1+int(classes-1)%32, 1+int(dim-1)%784
		if samples*rows*cols > 1<<21 {
			t.Skip("shape too large for a fuzz exec")
		}
		kc := newKernelCase(&kernelRNG{s: seed}, samples, rows, cols, withBias, float64(seed%4)/10)
		kc.overlay(raw)
		kc.check(t)
	})
}

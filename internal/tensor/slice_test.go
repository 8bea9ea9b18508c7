package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"unbiasedfl/internal/testutil"
)

// sliceFunc is ExpSlice or LogSlice with what the tests hold it to: the
// scalar function, its vector kernel, the values that kernel declines, and
// a draw of values it takes.
type sliceFunc struct {
	name     string
	slice    func(Vec)
	scalar   func(float64) float64
	vector   func(Vec) int
	declines func(float64) bool
	draw     func(r *kernelRNG) float64
}

var sliceFuncs = []sliceFunc{
	{
		name: "Exp", slice: ExpSlice, scalar: Exp, vector: expVector,
		declines: func(x float64) bool { return !(math.Abs(x) <= expNormal) },
		draw:     func(r *kernelRNG) float64 { return r.next() * math.Exp(7*r.next()) },
	},
	{
		name: "Log", slice: LogSlice, scalar: Log, vector: logVector,
		declines: func(x float64) bool { return !(x >= 0x1p-1022 && x < math.Inf(1)) },
		draw: func(r *kernelRNG) float64 {
			return math.Ldexp((r.next()+3)/4, int(1000*r.next()))
		},
	},
}

// sliceEdges are the inputs where Exp or Log changes branch, with their
// neighbours: ±0, the 2⁻²⁸ boundary, ±708 and just beyond, subnormals, the
// least normal number, 1, √2/2, the largest finite number, NaN and ±Inf.
func sliceEdges() []float64 {
	var out []float64
	for _, x := range []float64{
		0, 0x1p-28, expNormal, 709, 1, math.Sqrt2 / 2,
		math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, math.MaxFloat64,
	} {
		for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return append(out, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0dead00000001))
}

// check runs f's slice function on x carved out of guard words and fails t
// on any bit that differs from the scalar function's or a disturbed guard.
// It returns how many elements the vector kernel takes of x.
func (f sliceFunc) check(t testing.TB, x []float64, toEnd bool) int {
	t.Helper()
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = f.scalar(v)
	}
	c, g := testutil.Carve(len(x), toEnd, guard)
	copy(c, x)
	taken := f.vector(Vec(x).Clone())
	f.slice(c)
	if i, ok := identicalBits(c, want); !ok {
		t.Fatalf("%sSlice at %d of %d: %s(%v) = %v (%#x), scalar %v (%#x)", f.name, i, len(x),
			f.name, x[i], c[i], math.Float64bits(c[i]), want[i], math.Float64bits(want[i]))
	}
	if !g.Intact() {
		t.Fatalf("%sSlice wrote outside its %d elements", f.name, len(x))
	}
	return taken
}

// wantTaken is how many elements of x the vector kernel must take: every
// whole group of four up to the first holding a declined value.
func (f sliceFunc) wantTaken(x []float64) int {
	n := len(x) &^ 3
	for i, v := range x[:n] {
		if f.declines(v) {
			return i &^ 3
		}
	}
	return n
}

// TestSliceFuncsMatchScalar holds ExpSlice and LogSlice to Exp and Log bit
// for bit, on both tiers: every window of lengths 0–9 of the edge values,
// and every edge value in every position of a 9-element slice of values the
// kernel takes. On the vector tier the kernel must take exactly the groups
// of four before the first one holding a value it declines.
func TestSliceFuncsMatchScalar(t *testing.T) {
	edges := sliceEdges()
	for _, f := range sliceFuncs {
		for _, vector := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/vector=%t", f.name, vector), func(t *testing.T) {
				if vector {
					skipWithoutAVX2(t)
				} else {
					declineVector(t)
				}
				check := func(x []float64, toEnd bool) {
					want := 0
					if vector {
						want = f.wantTaken(x)
					}
					if took := f.check(t, x, toEnd); took != want {
						t.Fatalf("%v: the kernel took %d elements, want %d", x, took, want)
					}
				}
				for n := 0; n <= 9; n++ {
					for lo := 0; lo+n <= len(edges); lo++ {
						check(edges[lo:lo+n], (lo+n)%2 == 0)
					}
				}
				r := &kernelRNG{s: 41}
				for _, v := range edges {
					for at := 0; at < 9; at++ {
						x := make([]float64, 9)
						for i := range x {
							x[i] = f.draw(r)
						}
						x[at] = v
						check(x, at%2 == 1)
					}
				}
				x := make([]float64, 1000)
				for i := range x {
					x[i] = f.draw(r)
				}
				check(x, false)
			})
		}
	}
}

// FuzzSliceFuncsMatchScalar: every fuzzed run of bit patterns through
// ExpSlice and LogSlice, held to Exp and Log bit for bit, with the kernel
// taking exactly the groups before the first it declines.
func FuzzSliceFuncsMatchScalar(f *testing.F) {
	edges := sliceEdges()
	for n := 0; n <= 9; n++ {
		var raw []byte
		for _, v := range edges[n : 2*n] {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw, n%2 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, toEnd bool) {
		x := make([]float64, len(raw)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for _, sf := range sliceFuncs {
			want := 0
			if HasAVX2 {
				want = sf.wantTaken(x)
			}
			if took := sf.check(t, x, toEnd); took != want {
				t.Fatalf("%s: the kernel took %d of %d elements, want %d", sf.name, took, len(x), want)
			}
		}
	})
}

// BenchmarkSliceFuncs times ExpSlice over the timing model's lognormal
// exponents and LogSlice over an exponential draw's 1 − u, 1024 values a
// call, on both tiers.
func BenchmarkSliceFuncs(b *testing.B) {
	r := &kernelRNG{s: 42}
	src := map[string]Vec{"Exp": NewVec(1024), "Log": NewVec(1024)}
	for i := range src["Exp"] {
		src["Exp"][i] = -4.6 + 0.35*r.next()
		src["Log"][i] = 1 - (r.next()+1)/2
	}
	for _, f := range sliceFuncs {
		x := NewVec(1024)
		tiers(b, f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src[f.name])
				f.slice(x)
			}
			reportPerElement(b, len(x))
		})
	}
}

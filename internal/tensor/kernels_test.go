package tensor

import (
	"fmt"
	"math"
	"testing"
)

// kernelRNG is a tiny deterministic generator for kernel equivalence tests
// (kept local to avoid an import cycle with package stats).
type kernelRNG struct{ s uint64 }

func (r *kernelRNG) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11)/(1<<53)*2 - 1
}

func (r *kernelRNG) fill(v []float64) {
	for i := range v {
		v[i] = r.next()
	}
}

// kernelShapes exercises every blocking path: class counts around the 4- and
// 2-row blocks, sample counts around the 2- and 4-sample blocks, and both
// even and odd (unroll-tail) dims.
var kernelShapes = []struct{ batch, classes, dim int }{
	{1, 2, 3}, {2, 2, 4}, {3, 3, 5}, {4, 4, 8}, {5, 5, 7},
	{6, 6, 16}, {7, 9, 11}, {8, 10, 12}, {16, 10, 33}, {17, 13, 21},
}

const kernelTol = 1e-12

func TestMatMulTMatchesNaive(t *testing.T) {
	r := &kernelRNG{s: 1}
	for _, shape := range kernelShapes {
		m, k, n := shape.batch, shape.dim, shape.classes
		a, err := NewMat(m, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMat(n, k)
		if err != nil {
			t.Fatal(err)
		}
		r.fill(a.Data)
		r.fill(b.Data)
		out, _ := NewMat(m, n)
		if err := MatMulT(a, b, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for l := 0; l < k; l++ {
					want += a.Data[i*k+l] * b.Data[j*k+l]
				}
				if got := out.Data[i*n+j]; math.Abs(got-want) > kernelTol {
					t.Fatalf("%v: out[%d][%d] = %v, want %v", shape, i, j, got, want)
				}
			}
		}
	}
}

func TestMatMulTShapeErrors(t *testing.T) {
	a, _ := NewMat(2, 3)
	b, _ := NewMat(4, 5) // inner mismatch
	out, _ := NewMat(2, 4)
	if err := MatMulT(a, b, out); err == nil {
		t.Fatal("expected inner dimension error")
	}
	b2, _ := NewMat(4, 3)
	bad, _ := NewMat(3, 4) // wrong output rows
	if err := MatMulT(a, b2, bad); err == nil {
		t.Fatal("expected output shape error")
	}
	if err := MatMulT(nil, b2, out); err == nil {
		t.Fatal("expected nil matrix error")
	}
}

func TestLogitsBatchMatchesPerSample(t *testing.T) {
	r := &kernelRNG{s: 2}
	for _, shape := range kernelShapes {
		b, c, d := shape.batch, shape.classes, shape.dim
		w := NewVec(c * d)
		bias := NewVec(c)
		r.fill(w)
		r.fill(bias)
		xs := make([][]float64, b)
		for i := range xs {
			xs[i] = make([]float64, d)
			r.fill(xs[i])
		}
		out := NewVec(b * c)
		if err := LogitsBatch(xs, w, bias, d, c, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b; i++ {
			for cc := 0; cc < c; cc++ {
				var want float64
				for j := 0; j < d; j++ {
					want += w[cc*d+j] * xs[i][j]
				}
				want += bias[cc]
				if math.Abs(out[i*c+cc]-want) > kernelTol {
					t.Fatalf("%v: logits[%d][%d] = %v, want %v", shape, i, cc, out[i*c+cc], want)
				}
			}
		}
		// nil bias omits the offset.
		if err := LogitsBatch(xs, w, nil, d, c, out); err != nil {
			t.Fatal(err)
		}
		var want0 float64
		for j := 0; j < d; j++ {
			want0 += w[j] * xs[0][j]
		}
		if math.Abs(out[0]-want0) > kernelTol {
			t.Fatalf("nil bias: got %v want %v", out[0], want0)
		}
	}
}

// rowsWithOne returns n zero rows of dim floats, except that row odd (when
// not negative) has the given length instead.
func rowsWithOne(n, dim, odd, length int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
	}
	if odd >= 0 {
		xs[odd] = make([]float64, length)
	}
	return xs
}

func TestLogitsBatchErrors(t *testing.T) {
	xs := [][]float64{{1, 2}}
	if err := LogitsBatch(xs, NewVec(4), nil, 2, 2, NewVec(2)); err != nil {
		t.Fatal(err)
	}
	if err := LogitsBatch(xs, NewVec(3), nil, 2, 2, NewVec(2)); err == nil {
		t.Fatal("expected weight length error")
	}
	if err := LogitsBatch(xs, NewVec(4), NewVec(3), 2, 2, NewVec(2)); err == nil {
		t.Fatal("expected bias length error")
	}
	if err := LogitsBatch(xs, NewVec(4), nil, 2, 2, NewVec(3)); err == nil {
		t.Fatal("expected output length error")
	}
	if err := LogitsBatch([][]float64{{1}}, NewVec(4), nil, 2, 2, NewVec(2)); err == nil {
		t.Fatal("expected row length error")
	}
	if err := LogitsBatch(xs, NewVec(0), nil, 0, 2, NewVec(2)); err == nil {
		t.Fatal("expected shape error")
	}

	// On a shape the vector kernel takes, the length checks are all that
	// stands between a wrong argument and an unchecked load or store.
	const n, classes, dim = 16, 8, 12
	rows := func(odd, length int) [][]float64 { return rowsWithOne(n, dim, odd, length) }
	w, bias, out := NewVec(classes*dim), NewVec(classes), NewVec(n*classes)
	if err := LogitsBatch(rows(-1, 0), w, bias, dim, classes, out); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"short row in the middle": func() error { return LogitsBatch(rows(n/2, dim-1), w, bias, dim, classes, out) },
		"short last row":          func() error { return LogitsBatch(rows(n-1, dim-4), w, bias, dim, classes, out) },
		"empty row":               func() error { return LogitsBatch(rows(3, 0), w, bias, dim, classes, out) },
		"long row":                func() error { return LogitsBatch(rows(0, dim+4), w, bias, dim, classes, out) },
		"short w":                 func() error { return LogitsBatch(rows(-1, 0), w[:len(w)-1], bias, dim, classes, out) },
		"long w":                  func() error { return LogitsBatch(rows(-1, 0), NewVec(len(w)+dim), bias, dim, classes, out) },
		"short bias":              func() error { return LogitsBatch(rows(-1, 0), w, bias[:classes-1], dim, classes, out) },
		"long bias":               func() error { return LogitsBatch(rows(-1, 0), w, NewVec(classes+4), dim, classes, out) },
		"empty bias":              func() error { return LogitsBatch(rows(-1, 0), w, Vec{}, dim, classes, out) },
		"short out":               func() error { return LogitsBatch(rows(-1, 0), w, bias, dim, classes, out[:len(out)-1]) },
		"long out":                func() error { return LogitsBatch(rows(-1, 0), w, bias, dim, classes, NewVec(len(out)+classes)) },
		"out for no rows":         func() error { return LogitsBatch(nil, w, bias, dim, classes, out) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	if err := LogitsBatch(nil, w, bias, dim, classes, nil); err != nil {
		t.Fatalf("zero rows: %v", err)
	}
}

// softmaxReference is the textbook stable softmax on the standard library:
// p_j = exp(x_j − lse) with lse = m + log Σ exp(x_j − m).
func softmaxReference(row []float64) {
	m := row[0]
	for _, x := range row {
		m = math.Max(m, x)
	}
	var s float64
	for _, x := range row {
		s += math.Exp(x - m)
	}
	lse := m + math.Log(s)
	for j, x := range row {
		row[j] = math.Exp(x - lse)
	}
}

func TestSoftmaxRowsMatchesReference(t *testing.T) {
	r := &kernelRNG{s: 3}
	for _, shape := range kernelShapes {
		b, c := shape.batch, shape.classes
		batched := NewVec(b * c)
		r.fill(batched)
		for i := range batched {
			batched[i] *= 30 // exercise the stability shift
		}
		reference := batched.Clone()
		if err := SoftmaxRows(batched, b, c); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b; i++ {
			row := reference[i*c : (i+1)*c]
			softmaxReference(row)
			var sum float64
			for j := 0; j < c; j++ {
				got := batched[i*c+j]
				if math.Abs(got-row[j]) > kernelTol {
					t.Fatalf("%v: softmax[%d][%d] = %v, want %v", shape, i, j, got, row[j])
				}
				sum += got
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d sums to %v", i, sum)
			}
		}
	}
	if err := SoftmaxRows(NewVec(3), 2, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := SoftmaxRows(NewVec(0), 1, 0); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAddScaledTMulMatchesNaive(t *testing.T) {
	r := &kernelRNG{s: 4}
	for _, shape := range kernelShapes {
		b, c, d := shape.batch, shape.classes, shape.dim
		p := NewVec(b * c)
		r.fill(p)
		xs := make([][]float64, b)
		for i := range xs {
			xs[i] = make([]float64, d)
			r.fill(xs[i])
		}
		g := NewVec(c * d)
		r.fill(g)
		want := g.Clone()
		const scale = 0.37
		if err := AddScaledTMul(scale, xs, p, c, d, g); err != nil {
			t.Fatal(err)
		}
		for cc := 0; cc < c; cc++ {
			for i := 0; i < b; i++ {
				pc := scale * p[i*c+cc]
				for j := 0; j < d; j++ {
					want[cc*d+j] += pc * xs[i][j]
				}
			}
		}
		for j := range g {
			if math.Abs(g[j]-want[j]) > kernelTol {
				t.Fatalf("%v: g[%d] = %v, want %v", shape, j, g[j], want[j])
			}
		}
	}
}

func TestAddScaledTMulErrors(t *testing.T) {
	xs := [][]float64{{1, 2}}
	if err := AddScaledTMul(1, xs, NewVec(2), 2, 2, NewVec(4)); err != nil {
		t.Fatal(err)
	}
	if err := AddScaledTMul(1, xs, NewVec(3), 2, 2, NewVec(4)); err == nil {
		t.Fatal("expected probability length error")
	}
	if err := AddScaledTMul(1, xs, NewVec(2), 2, 2, NewVec(3)); err == nil {
		t.Fatal("expected gradient length error")
	}
	if err := AddScaledTMul(1, [][]float64{{1}}, NewVec(2), 2, 2, NewVec(4)); err == nil {
		t.Fatal("expected row length error")
	}
	if err := AddScaledTMul(1, xs, NewVec(0), 0, 2, NewVec(0)); err == nil {
		t.Fatal("expected shape error")
	}

	// The same on a shape the vector kernels take (see TestLogitsBatchErrors).
	const n, classes, dim = 16, 6, 12
	rows := func(odd, length int) [][]float64 { return rowsWithOne(n, dim, odd, length) }
	p, g := NewVec(n*classes), NewVec(classes*dim)
	if err := AddScaledTMul(1, rows(-1, 0), p, classes, dim, g); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"short row in the middle": func() error { return AddScaledTMul(1, rows(n/2, dim-1), p, classes, dim, g) },
		"short last row":          func() error { return AddScaledTMul(1, rows(n-1, dim-4), p, classes, dim, g) },
		"empty row":               func() error { return AddScaledTMul(1, rows(3, 0), p, classes, dim, g) },
		"long row":                func() error { return AddScaledTMul(1, rows(0, dim+4), p, classes, dim, g) },
		"short p":                 func() error { return AddScaledTMul(1, rows(-1, 0), p[:len(p)-1], classes, dim, g) },
		"long p":                  func() error { return AddScaledTMul(1, rows(-1, 0), NewVec(len(p)+classes), classes, dim, g) },
		"short g":                 func() error { return AddScaledTMul(1, rows(-1, 0), p, classes, dim, g[:len(g)-1]) },
		"long g":                  func() error { return AddScaledTMul(1, rows(-1, 0), p, classes, dim, NewVec(len(g)+dim)) },
		"p for no rows":           func() error { return AddScaledTMul(1, nil, p, classes, dim, g) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	g[5] = 7
	if err := AddScaledTMul(1, nil, nil, classes, dim, g); err != nil || g[5] != 7 {
		t.Fatalf("zero rows must be a no-op: err %v, g[5] = %v", err, g[5])
	}
}

// kernelBenchShapes are the benchmark workloads' SGD-step shapes, the 784×10
// benchTask and one 512-row evaluation chunk.
var kernelBenchShapes = []struct {
	name            string
	n, classes, dim int
}{
	{"64x10_b24", 24, 10, 64},
	{"60x10_b8", 8, 10, 60},
	{"64x26_b8", 8, 26, 64},
	{"784x10_b24", 24, 10, 784},
	{"64x10_b512", 512, 10, 64},
}

func benchKernelInputs(n, classes, dim int) (xs [][]float64, w, bias, p, g Vec) {
	r := &kernelRNG{s: 5}
	xs = make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		r.fill(xs[i])
	}
	w, bias, p, g = NewVec(classes*dim), NewVec(classes), NewVec(n*classes), NewVec(classes*dim)
	r.fill(w)
	r.fill(bias)
	r.fill(p)
	return xs, w, bias, p, g
}

func reportMACs(b *testing.B, n, classes, dim int) {
	b.ReportMetric(float64(n*classes*dim)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
}

func BenchmarkLogitsBatch(b *testing.B) {
	for _, shape := range kernelBenchShapes {
		b.Run(shape.name, func(b *testing.B) {
			xs, w, bias, out, _ := benchKernelInputs(shape.n, shape.classes, shape.dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := LogitsBatch(xs, w, bias, shape.dim, shape.classes, out); err != nil {
					b.Fatal(err)
				}
			}
			reportMACs(b, shape.n, shape.classes, shape.dim)
		})
	}
}

func BenchmarkAddScaledTMul(b *testing.B) {
	for _, shape := range kernelBenchShapes {
		b.Run(shape.name, func(b *testing.B) {
			xs, _, _, p, g := benchKernelInputs(shape.n, shape.classes, shape.dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&1023 == 0 {
					g.Zero() // keep the accumulated gradient finite
				}
				if err := AddScaledTMul(1/float64(shape.n), xs, p, shape.classes, shape.dim, g); err != nil {
					b.Fatal(err)
				}
			}
			reportMACs(b, shape.n, shape.classes, shape.dim)
		})
	}
}

// BenchmarkSGDUpdate times the training step's update at the three setups'
// model sizes on both tiers, in ns per parameter.
func BenchmarkSGDUpdate(b *testing.B) {
	for _, p := range []int{610, 650, 1690} {
		for _, vector := range []bool{true, false} {
			b.Run(fmt.Sprintf("p%d/vector=%t", p, vector), func(b *testing.B) {
				if !vector {
					declineVector(b)
				} else {
					skipWithoutAVX2(b)
				}
				r := &kernelRNG{s: 6}
				w, g := NewVec(p), NewVec(p)
				r.fill(w)
				r.fill(g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := SGDUpdate(w, g, 0.02, 1e-9); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p), "ns/param")
			})
		}
	}
}

package model

import (
	"math"
	"testing"
	"testing/quick"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// twoBlobs builds a linearly separable 2-class dataset.
func twoBlobs(r *stats.RNG, n int) *data.Dataset {
	ds := &data.Dataset{Dim: 2, Classes: 2}
	for i := 0; i < n; i++ {
		y := i % 2
		cx := -2.0
		if y == 1 {
			cx = 2.0
		}
		ds.X = append(ds.X, []float64{cx + 0.5*r.NormFloat64(), 0.5 * r.NormFloat64()})
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func TestNewLogisticRegressionValidation(t *testing.T) {
	if _, err := NewLogisticRegression(0, 2, 0.1); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := NewLogisticRegression(2, 1, 0.1); err == nil {
		t.Fatal("expected error for one class")
	}
	if _, err := NewLogisticRegression(2, 2, -1); err == nil {
		t.Fatal("expected error for negative mu")
	}
	m, err := NewLogisticRegression(3, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() != 3*4+4 {
		t.Fatalf("numparams %d", m.NumParams())
	}
}

func TestLossAtZeroIsLogK(t *testing.T) {
	r := stats.NewRNG(1)
	ds := twoBlobs(r, 50)
	m, _ := NewLogisticRegression(2, 2, 0)
	loss, err := m.Loss(m.ZeroParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Fatalf("loss at zero %v, want ln2", loss)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	r := stats.NewRNG(2)
	ds := twoBlobs(r, 40)
	m, _ := NewLogisticRegression(2, 2, 0.1)
	w := m.ZeroParams()
	for i := range w {
		w[i] = 0.3 * r.NormFloat64()
	}
	grad := m.ZeroParams()
	if err := m.Gradient(w, ds, grad); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := 0; i < len(w); i += 2 { // spot-check half the coordinates
		wp := w.Clone()
		wp[i] += h
		lp, err := m.Loss(wp, ds)
		if err != nil {
			t.Fatal(err)
		}
		wm := w.Clone()
		wm[i] -= h
		lm, err := m.Loss(wm, ds)
		if err != nil {
			t.Fatal(err)
		}
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-4 {
			t.Fatalf("coord %d: fd %v vs grad %v", i, fd, grad[i])
		}
	}
}

func TestStochasticGradientUnbiased(t *testing.T) {
	r := stats.NewRNG(3)
	ds := twoBlobs(r, 30)
	m, _ := NewLogisticRegression(2, 2, 0.05)
	w := m.ZeroParams()
	for i := range w {
		w[i] = 0.2 * r.NormFloat64()
	}
	full := m.ZeroParams()
	if err := m.Gradient(w, ds, full); err != nil {
		t.Fatal(err)
	}
	avg := m.ZeroParams()
	g := m.ZeroParams()
	const reps = 4000
	for i := 0; i < reps; i++ {
		if err := m.StochasticGradient(w, ds, 5, r, g); err != nil {
			t.Fatal(err)
		}
		if err := avg.AddScaled(1.0/reps, g); err != nil {
			t.Fatal(err)
		}
	}
	diff, err := tensor.Sub(avg, full)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Norm2() > 0.05*math.Max(full.Norm2(), 1) {
		t.Fatalf("stochastic gradient biased: |avg-full|=%v", diff.Norm2())
	}
}

func TestSolveReachesLowGradient(t *testing.T) {
	r := stats.NewRNG(4)
	ds := twoBlobs(r, 100)
	m, _ := NewLogisticRegression(2, 2, 0.1)
	w, err := Solve(m, ds, nil, SolveOptions{MaxIters: 2000, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	grad := m.ZeroParams()
	if err := m.Gradient(w, ds, grad); err != nil {
		t.Fatal(err)
	}
	if grad.Norm2() > 1e-4 {
		t.Fatalf("solver gradient norm %v", grad.Norm2())
	}
	acc, err := m.Accuracy(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("separable accuracy %v", acc)
	}
	loss, err := m.Loss(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := m.Loss(m.ZeroParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if loss >= zero {
		t.Fatalf("solver did not improve: %v >= %v", loss, zero)
	}
}

func TestSolveStrongConvexUnique(t *testing.T) {
	// With mu > 0 the optimum is unique: two different inits must converge
	// to (almost) the same point.
	r := stats.NewRNG(5)
	ds := twoBlobs(r, 60)
	m, _ := NewLogisticRegression(2, 2, 0.5)
	opts := SolveOptions{MaxIters: 5000, Tolerance: 1e-9}
	w1, err := Solve(m, ds, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	init := m.ZeroParams()
	for i := range init {
		init[i] = r.NormFloat64()
	}
	w2, err := Solve(m, ds, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := tensor.Sub(w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Norm2() > 1e-4 {
		t.Fatalf("strongly convex optima differ by %v", diff.Norm2())
	}
}

func TestPredictAccuracyErrors(t *testing.T) {
	m, _ := NewLogisticRegression(2, 2, 0)
	empty := &data.Dataset{Dim: 2, Classes: 2}
	if _, err := m.Loss(m.ZeroParams(), empty); err == nil {
		t.Fatal("expected error for empty loss")
	}
	if _, err := m.Accuracy(m.ZeroParams(), empty); err == nil {
		t.Fatal("expected error for empty accuracy")
	}
	if err := m.Gradient(m.ZeroParams(), empty, m.ZeroParams()); err == nil {
		t.Fatal("expected error for empty gradient")
	}
	ds := &data.Dataset{Dim: 2, Classes: 2, X: [][]float64{{1, 1}}, Y: []int{0}}
	if err := m.StochasticGradient(m.ZeroParams(), ds, 0, stats.NewRNG(1), m.ZeroParams()); err == nil {
		t.Fatal("expected error for zero batch")
	}
	if err := m.Logits(m.ZeroParams(), []float64{1}, tensor.NewVec(2)); err == nil {
		t.Fatal("expected error for wrong input dim")
	}
	if err := m.Logits(tensor.NewVec(3), []float64{1, 1}, tensor.NewVec(2)); err == nil {
		t.Fatal("expected error for wrong params length")
	}
}

func TestEstimateSmoothness(t *testing.T) {
	m, _ := NewLogisticRegression(2, 2, 0.25)
	ds := &data.Dataset{Dim: 2, Classes: 2, X: [][]float64{{3, 4}}, Y: []int{0}}
	l, err := m.EstimateSmoothness(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(25+1) + 0.25
	if math.Abs(l-want) > 1e-12 {
		t.Fatalf("smoothness %v want %v", l, want)
	}
	if _, err := m.EstimateSmoothness(&data.Dataset{Dim: 2, Classes: 2}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestQuickLossNonNegativeUnregularized(t *testing.T) {
	r := stats.NewRNG(8)
	ds := twoBlobs(r, 20)
	m, _ := NewLogisticRegression(2, 2, 0)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 50 || math.Abs(b) > 50 {
			return true
		}
		w := m.ZeroParams()
		w[0], w[3] = a, b
		loss, err := m.Loss(w, ds)
		return err == nil && loss >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

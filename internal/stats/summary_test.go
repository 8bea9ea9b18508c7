package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("mean %v", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Fatalf("variance %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should yield zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tc := range cases {
		got, err := Quantile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("q(%v)=%v want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("expected error for level out of range")
	}
	one, err := Quantile([]float64{42}, 0.9)
	if err != nil || one != 42 {
		t.Fatalf("single-element quantile %v err %v", one, err)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRNG(55)
	xs := make([]float64, 5000)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 2
		w.Add(xs[i])
	}
	if w.Count() != len(xs) {
		t.Fatalf("count %d", w.Count())
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("welford mean %v vs %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-6) {
		t.Fatalf("welford var %v vs %v", w.Variance(), Variance(xs))
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Std() != 0 {
		t.Fatal("empty welford should have zero variance")
	}
	w.Add(5)
	if w.Variance() != 0 {
		t.Fatal("single-sample variance should be zero")
	}
}

func TestSeriesMean(t *testing.T) {
	got, err := SeriesMean([][]float64{{1, 2, 3}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("series mean %v", got)
		}
	}
	if _, err := SeriesMean(nil); err == nil {
		t.Fatal("expected error for no series")
	}
	if _, err := SeriesMean([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("expected error for ragged series")
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			q, err := Quantile(xs, p)
			if err != nil || q < prev-1e-12 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

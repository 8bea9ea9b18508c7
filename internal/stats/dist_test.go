package stats

import (
	"math"
	"testing"
	"testing/quick"

	"unbiasedfl/internal/tensor"
)

func TestExponentialMean(t *testing.T) {
	r := NewRNG(5)
	for _, mean := range []float64{0.5, 4, 4000} {
		xs, err := Exponential(r, 100000, mean)
		if err != nil {
			t.Fatal(err)
		}
		got := Mean(xs)
		if math.Abs(got-mean)/mean > 0.03 {
			t.Fatalf("mean %v for target %v", got, mean)
		}
		for _, x := range xs {
			if x < 0 {
				t.Fatalf("negative exponential sample %v", x)
			}
		}
	}
}

// TestExponentialMatchesScalarLoop holds Exponential's three passes to a
// loop of ExpFloat64 calls, the form they replaced, bit for bit and in the
// state they leave, at every length up to 300.
func TestExponentialMatchesScalarLoop(t *testing.T) {
	for _, mean := range []float64{1, 55, 4000} {
		bulk, scalar := NewRNG(6), NewRNG(6)
		for n := 0; n <= 300; n++ {
			got, err := Exponential(bulk, n, mean)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range got {
				if want := mean * scalar.ExpFloat64(); math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("mean %v, %d values: value %d is %v, the scalar loop gives %v", mean, n, i, x, want)
				}
			}
			if bulk.State() != scalar.State() {
				t.Fatalf("mean %v, %d values: state %x, the scalar loop leaves %x", mean, n, bulk.State(), scalar.State())
			}
		}
	}
}

func TestExponentialErrors(t *testing.T) {
	r := NewRNG(5)
	if _, err := Exponential(r, -1, 1); err == nil {
		t.Fatal("expected error for negative count")
	}
	if _, err := Exponential(r, 1, -1); err == nil {
		t.Fatal("expected error for negative mean")
	}
}

func TestPowerLawSizesConservation(t *testing.T) {
	r := NewRNG(9)
	cases := []struct {
		n, total, min int
		s             float64
	}{
		{40, 22377, 20, 1.2},
		{40, 14463, 20, 1.2},
		{10, 1000, 5, 0.8},
		{1, 100, 0, 2},
	}
	for _, tc := range cases {
		sizes, err := PowerLawSizes(r, tc.n, tc.total, tc.min, tc.s)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		sum := 0
		for _, s := range sizes {
			if s < tc.min {
				t.Fatalf("size %d below minimum %d", s, tc.min)
			}
			sum += s
		}
		if sum != tc.total {
			t.Fatalf("sizes sum %d, want %d", sum, tc.total)
		}
	}
}

func TestPowerLawSizesSkewed(t *testing.T) {
	r := NewRNG(15)
	sizes, err := PowerLawSizes(r, 40, 22377, 20, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi = sizes[0], sizes[0]
	for _, s := range sizes {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if float64(hi) < 5*float64(lo) {
		t.Fatalf("expected heavy imbalance, got min=%d max=%d", lo, hi)
	}
}

func TestPowerLawSizesErrors(t *testing.T) {
	r := NewRNG(9)
	if _, err := PowerLawSizes(r, 0, 100, 0, 1); err == nil {
		t.Fatal("expected error for zero parts")
	}
	if _, err := PowerLawSizes(r, 10, 5, 1, 1); err == nil {
		t.Fatal("expected error for total below minimums")
	}
	if _, err := PowerLawSizes(r, 10, 100, -1, 1); err == nil {
		t.Fatal("expected error for negative minimum")
	}
	if _, err := PowerLawSizes(r, 10, 100, 0, -1); err == nil {
		t.Fatal("expected error for negative exponent")
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(21)
	xs, err := LogNormal(r, 100001, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-2)/2 > 0.05 {
		t.Fatalf("median %v, want ~2", med)
	}
}

// TestLogNormalMatchesScalarLoop holds LogNormal's bulk draw to a loop of
// NormFloat64 calls, the form it replaced, bit for bit and in the state it
// leaves, at every length up to 300: across several 64-value chunks of
// NormFloat64s.
func TestLogNormalMatchesScalarLoop(t *testing.T) {
	for _, c := range []struct{ median, sigma float64 }{{2, 0.5}, {0.03, 1.3}} {
		bulk, scalar := NewRNG(5), NewRNG(5)
		mu := tensor.Log(c.median)
		for n := 0; n <= 300; n++ {
			got, err := LogNormal(bulk, n, c.median, c.sigma)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range got {
				want := tensor.Exp(mu + float64(c.sigma*scalar.NormFloat64()))
				if math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("median %v sigma %v, %d values: value %d is %v, the scalar loop gives %v",
						c.median, c.sigma, n, i, x, want)
				}
			}
			if bulk.State() != scalar.State() {
				t.Fatalf("median %v sigma %v, %d values: state %x, the scalar loop leaves %x",
					c.median, c.sigma, n, bulk.State(), scalar.State())
			}
		}
	}
}

func TestLogNormalErrors(t *testing.T) {
	r := NewRNG(21)
	if _, err := LogNormal(r, 10, 0, 1); err == nil {
		t.Fatal("expected error for non-positive median")
	}
	if _, err := LogNormal(r, -2, 1, 1); err == nil {
		t.Fatal("expected error for negative count")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(25)
	xs, err := UniformRange(r, 10000, -3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if x < -3 || x >= 5 {
			t.Fatalf("sample %v outside [-3,5)", x)
		}
	}
	if _, err := UniformRange(r, 2, 5, 1); err == nil {
		t.Fatal("expected error for inverted range")
	}
}

func TestQuickPowerLawAlwaysConserves(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		sizes, err := PowerLawSizes(r, 13, 997, 3, 1.5)
		if err != nil {
			return false
		}
		sum := 0
		for _, s := range sizes {
			if s < 3 {
				return false
			}
			sum += s
		}
		return sum == 997
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

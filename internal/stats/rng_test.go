package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestNewRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", w.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 7, 100, 12345} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.08*expected {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", w.Mean())
	}
	if math.Abs(w.Std()-1) > 0.02 {
		t.Fatalf("normal std %v, want ~1", w.Std())
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(19)
	var w Welford
	for i := 0; i < 200000; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", w.Mean())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	for _, n := range []int{0, 1, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(31)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate %v", p, rate)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(37)
	child := parent.Split()
	// Child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split child too correlated: %d/64 matches", same)
	}
}

// TestSplitStateMatchesSplit holds Split and SplitState to the child
// definition, NewRNG(parent.Uint64() ^ 0xA5A5A5A55A5A5A5A), and to leaving
// the parent where that draw leaves it.
func TestSplitStateMatchesSplit(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		ref, a, b := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for i := 0; i < 8; i++ {
			want := NewRNG(ref.Uint64() ^ 0xA5A5A5A55A5A5A5A).State()
			if got := a.Split().State(); got != want {
				t.Fatalf("seed %d split %d: Split %x, want %x", seed, i, got, want)
			}
			if got := b.SplitState(); got != want {
				t.Fatalf("seed %d split %d: SplitState %x, want %x", seed, i, got, want)
			}
		}
		if a.State() != ref.State() || b.State() != ref.State() {
			t.Fatalf("seed %d: parents left at %x and %x, want %x", seed, a.State(), b.State(), ref.State())
		}
	}
}

func TestQuickFloat64AlwaysInRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			x := r.Float64()
			if x < 0 || x >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

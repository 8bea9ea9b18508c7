package fl

import (
	"reflect"
	"testing"

	"unbiasedfl/internal/stats"
)

// TestBernoulliSetQ covers the membership-epoch re-pricing seam: SetQ moves
// the participation thresholds without touching the coin stream, validates
// its input, and copies it.
func TestBernoulliSetQ(t *testing.T) {
	q := []float64{0.3, 0.7, 0.5}
	a, err := NewBernoulliSampler(q, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBernoulliSampler(q, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}

	// Setting the same levels is a no-op on the draw sequence: only
	// thresholds move, never the stream.
	if err := b.SetQ([]float64{0.3, 0.7, 0.5}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		if got, want := b.Sample(round), a.Sample(round); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: SetQ(same) perturbed the stream: %v vs %v", round, got, want)
		}
	}

	// Degenerate levels pin behavior: q=1 always participates, q=0 never.
	if err := a.SetQ([]float64{1, 0, 0.5}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		saw0, saw1 := false, false
		for _, n := range a.Sample(round) {
			saw0 = saw0 || n == 0
			saw1 = saw1 || n == 1
		}
		if !saw0 || saw1 {
			t.Fatalf("round %d: q=[1,0,·] drew saw0=%v saw1=%v", round, saw0, saw1)
		}
	}

	// The argument is copied, not aliased.
	levels := []float64{0.2, 0.2, 0.2}
	if err := a.SetQ(levels); err != nil {
		t.Fatal(err)
	}
	levels[0] = 0.9
	if got := a.EffectiveQ(); got[0] != 0.2 {
		t.Fatalf("SetQ aliased its argument: q[0] = %v", got[0])
	}

	if err := a.SetQ([]float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := a.SetQ([]float64{0.5, 1.5, 0.5}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	// Failed calls must not partially apply.
	if got := a.EffectiveQ(); !reflect.DeepEqual(got, []float64{0.2, 0.2, 0.2}) {
		t.Fatalf("failed SetQ mutated levels: %v", got)
	}
}

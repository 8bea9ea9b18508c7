package stats

import "testing"

// TestRNGStateRoundtrip pins the checkpoint contract: a generator restored
// from a mid-stream cursor continues the exact sequence the original would
// have produced.
func TestRNGStateRoundtrip(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	clone, err := RestoreRNG(r.State())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("draw %d diverged after restore: %d vs %d", i, a, b)
		}
	}
}

func TestRestoreRNGRejectsZeroState(t *testing.T) {
	if _, err := RestoreRNG([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
}

// TestRNGRestoreInPlace: Restore repositions an existing generator exactly as
// RestoreRNG builds a new one, and a rejected state leaves it where it was.
func TestRNGRestoreInPlace(t *testing.T) {
	src := NewRNG(11)
	src.Uint64()
	r := NewRNG(99)
	if err := r.Restore(src.State()); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), r.Uint64(); a != b {
			t.Fatalf("draw %d diverged after in-place restore: %d vs %d", i, a, b)
		}
	}
}

package stats

import (
	"math"
	"testing"
)

// checkNormFloat64s fails t unless NormFloat64s fills n values with exactly
// the bits of n NormFloat64 calls on a twin generator, leaves the generator
// in the twin's state, and writes nothing beyond its slice.
func checkNormFloat64s(t testing.TB, seed uint64, n int) {
	t.Helper()
	bulk, scalar := NewRNG(seed), NewRNG(seed)
	buf := make([]float64, n+1)
	buf[n] = 42
	bulk.NormFloat64s(buf[:n])
	for i, got := range buf[:n] {
		if want := scalar.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d, %d values: value %d is %v (%#x), NormFloat64 gives %v (%#x)",
				seed, n, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if buf[n] != 42 {
		t.Fatalf("seed %d, %d values: wrote past the end of dst", seed, n)
	}
	if bulk.State() != scalar.State() {
		t.Fatalf("seed %d, %d values: state %x, NormFloat64 leaves %x", seed, n, bulk.State(), scalar.State())
	}
}

// TestNormFloat64sMatchesNormFloat64 holds the bulk sampler to the scalar
// one bit for bit at every length up to 300, across several chunk
// boundaries, for several seeds, and over a stream whose earlier fills
// ended mid-chunk.
func TestNormFloat64sMatchesNormFloat64(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 0xdeadbeef} {
		for n := 0; n <= 300; n++ {
			checkNormFloat64s(t, seed, n)
		}
	}
	bulk, scalar := NewRNG(7), NewRNG(7)
	for _, n := range []int{1, 63, 64, 65, 0, 200, 3} {
		got := make([]float64, n)
		bulk.NormFloat64s(got)
		for i, v := range got {
			if want := scalar.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("fill of %d: value %d is %v, NormFloat64 gives %v", n, i, v, want)
			}
		}
	}
}

// FuzzNormFloat64s: a fuzzed seed and length, the same comparison.
func FuzzNormFloat64s(f *testing.F) {
	for i, n := range []uint16{0, 1, 3, 4, 63, 64, 65, 300} {
		f.Add(uint64(i), n)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		checkNormFloat64s(t, seed, int(n)%2049)
	})
}

// BenchmarkNormFloat64s times 64-value fills, a row of the image-like
// setups' features, beside a loop of NormFloat64 calls; ns/normal is the
// cost of one variate.
func BenchmarkNormFloat64s(b *testing.B) {
	dst := make([]float64, 64)
	b.Run("bulk", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			r.NormFloat64s(dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/normal")
	})
	b.Run("scalar", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = r.NormFloat64()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/normal")
	})
}

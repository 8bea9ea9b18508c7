package engine

import (
	"math"
	"slices"
	"testing"

	"unbiasedfl/internal/stats"
)

// TestBernoulliSamplerInputs: both shapes of the sampler — plain
// (NewBernoulliSampler) and fault-composed (NewFaultSampler) — keep their
// own copy of q, refuse an out-of-range or NaN level in SetQ without moving
// any threshold, and restore a state of the wrong shape not at all.
func TestBernoulliSamplerInputs(t *testing.T) {
	q := []float64{0.25, 0.5, 0.75}
	shapes := map[string]func([]float64) *BernoulliSampler{
		"plain": func(q []float64) *BernoulliSampler { return bernoulliSampler(t, q, 3) },
		"faulted": func(q []float64) *BernoulliSampler {
			return NewFaultSampler(q, NewFaultSchedule(len(q)), stats.NewRNG(3), stats.NewRNG(4))
		},
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			arg := slices.Clone(q)
			s := mk(arg)
			arg[0] = 0.9
			if got := s.EffectiveQ(); !slices.Equal(got, q) {
				t.Fatalf("caller mutation after construction: EffectiveQ %v, want %v", got, q)
			}
			for _, bad := range []float64{math.NaN(), 1.5, -0.1} {
				if err := s.SetQ([]float64{0.1, bad, 0.1}); err == nil {
					t.Fatalf("SetQ accepted level %v", bad)
				}
				if got := s.EffectiveQ(); !slices.Equal(got, q) {
					t.Fatalf("refused SetQ(%v) left EffectiveQ %v, want %v", bad, got, q)
				}
			}
			if err := s.SetQ(arg); err != nil {
				t.Fatal(err)
			}
			arg[0] = 0.1
			if got := s.EffectiveQ(); got[0] != 0.9 {
				t.Fatalf("caller mutation after SetQ: EffectiveQ %v", got)
			}

			state := s.SamplerState()
			wrong := make([]uint64, 12-len(state)) // 8 words into plain, 4 into faulted
			for i := range wrong {
				wrong[i] = uint64(i + 1)
			}
			if err := s.RestoreSamplerState(wrong); err == nil {
				t.Fatalf("restored %d words into a %d-word sampler", len(wrong), len(state))
			}
			zeroTail := slices.Clone(state)
			clear(zeroTail[len(zeroTail)-4:]) // the last stream is unreachable
			for i := range zeroTail[:len(zeroTail)-4] {
				zeroTail[i]++
			}
			if err := s.RestoreSamplerState(zeroTail); err == nil {
				t.Fatal("restored an all-zero stream")
			}
			if got := s.SamplerState(); !slices.Equal(got, state) {
				t.Fatalf("refused restores moved the state: %v, want %v", got, state)
			}
		})
	}
}

// TestPlainSamplerMatchesFaultFree: without faults the plain loop and the
// fault-composed one draw the same willingness coins, so they pick the same
// clients round after round.
func TestPlainSamplerMatchesFaultFree(t *testing.T) {
	q := []float64{0.9, 0, 0.3, 1, 0.5, 0.05}
	plain := bernoulliSampler(t, q, 17)
	faulted := NewFaultSampler(q, NewFaultSchedule(len(q)), stats.NewRNG(17), stats.NewRNG(18))
	for round := 0; round < 200; round++ {
		if a, b := plain.Sample(round), faulted.Sample(round); !slices.Equal(a, b) {
			t.Fatalf("round %d: plain %v, fault-free %v", round, a, b)
		}
	}
}

// sampleSink keeps BenchmarkSample's draws live.
var sampleSink []int

// BenchmarkSample times one round's draw over 10^5 clients, as the
// fleet-scale runs make it on the orchestration goroutine: the plain shape,
// and the fault-composed one with drops, unavailability and deviators.
func BenchmarkSample(b *testing.B) {
	const n = 100_000
	r := stats.NewRNG(1)
	q := make([]float64, n)
	for i := range q {
		q[i] = 0.05 + 0.9*r.Float64()
	}
	sch := NewFaultSchedule(n)
	for i := 0; i < n; i += 50 {
		sch.DropRound[i] = 0
	}
	for i := 0; i < n; i += 7 {
		sch.Availability[i] = 0.9
	}
	for i := 0; i < n; i += 11 {
		sch.QFactor[i] = 0.5
	}
	plain, err := NewBernoulliSampler(q, stats.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *BernoulliSampler
	}{
		{"plain", plain},
		{"faulted", NewFaultSampler(q, sch, stats.NewRNG(2), stats.NewRNG(3))},
	} {
		s := c.s
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sampleSink = s.Sample(i)
			}
		})
	}
}

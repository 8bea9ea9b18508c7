package fl

import (
	"context"
	"math"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

func TestAvailabilitySamplerValidation(t *testing.T) {
	r := stats.NewRNG(1)
	if _, err := NewAvailabilitySampler(nil, nil, r); err == nil {
		t.Fatal("expected empty q error")
	}
	if _, err := NewAvailabilitySampler([]float64{0.5}, []float64{0.5, 0.5}, r); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := NewAvailabilitySampler([]float64{0.5}, []float64{0.5}, nil); err == nil {
		t.Fatal("expected nil rng error")
	}
	if _, err := NewAvailabilitySampler([]float64{1.5}, []float64{0.5}, r); err == nil {
		t.Fatal("expected q range error")
	}
	if _, err := NewAvailabilitySampler([]float64{0.5}, []float64{-0.1}, r); err == nil {
		t.Fatal("expected availability range error")
	}
}

func TestAvailabilitySamplerRates(t *testing.T) {
	q := []float64{0.8, 1.0, 0.5}
	av := []float64{0.5, 0.25, 1.0}
	s, err := NewAvailabilitySampler(q, av, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClients() != 3 {
		t.Fatalf("clients %d", s.NumClients())
	}
	eff := s.EffectiveQ()
	want := []float64{0.4, 0.25, 0.5}
	for n := range want {
		if math.Abs(eff[n]-want[n]) > 1e-12 {
			t.Fatalf("effective q %v", eff)
		}
	}
	counts := make([]int, 3)
	const rounds = 40000
	for r := 0; r < rounds; r++ {
		for _, n := range s.Sample(r) {
			counts[n]++
		}
	}
	for n := range counts {
		rate := float64(counts[n]) / rounds
		if math.Abs(rate-want[n]) > 0.015 {
			t.Fatalf("client %d rate %v, want %v", n, rate, want[n])
		}
	}
}

// TestAvailabilityUnbiasedAggregation verifies that dividing by the
// effective q keeps Lemma 1's unbiasedness when availability throttles
// participation.
func TestAvailabilityUnbiasedAggregation(t *testing.T) {
	weights := []float64{0.6, 0.4}
	q := []float64{0.9, 0.7}
	av := []float64{0.5, 0.8}
	deltas := []tensor.Vec{{2}, {-1}}
	s, err := NewAvailabilitySampler(q, av, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eff := s.EffectiveQ()

	target := tensor.NewVec(1)
	for n := range deltas {
		if err := target.AddScaled(weights[n], deltas[n]); err != nil {
			t.Fatal(err)
		}
	}
	const trials = 150000
	mean := tensor.NewVec(1)
	agg := engine.UnbiasedAggregator{}
	for trial := 0; trial < trials; trial++ {
		global := tensor.NewVec(1)
		var updates []engine.ClientUpdate
		for _, n := range s.Sample(trial) {
			updates = append(updates, engine.ClientUpdate{Client: n, Delta: deltas[n]})
		}
		if err := agg.Aggregate(global, updates, weights, eff); err != nil {
			t.Fatal(err)
		}
		if err := mean.AddScaled(1.0/trials, global); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(mean[0]-target[0]) > 0.02 {
		t.Fatalf("availability-adjusted aggregation biased: %v vs %v", mean[0], target[0])
	}
}

// TestRunnerWithAvailabilitySampler runs end-to-end training with
// intermittent availability and checks the model still learns.
func TestRunnerWithAvailabilitySampler(t *testing.T) {
	fed := testFederation(t, 12, 5)
	m := testModel(t, fed)
	q := []float64{0.9, 0.9, 0.9, 0.9, 0.9}
	av := []float64{0.6, 0.9, 0.5, 0.8, 0.7}
	sampler, err := NewAvailabilitySampler(q, av, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rounds = 60
	cfg.LocalSteps = 8
	res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), true)
	if err != nil {
		t.Fatal(err)
	}
	zeroLoss, err := m.Loss(m.ZeroParams(), fed.Train)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= zeroLoss {
		t.Fatalf("availability-throttled training did not learn: %v >= %v",
			res.FinalLoss, zeroLoss)
	}
}

package fl

import (
	"context"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
)

// TestRunnerDetectsDivergence injects an absurd learning rate and verifies
// the engine fails fast with a divergence error instead of silently
// producing NaN models.
func TestRunnerDetectsDivergence(t *testing.T) {
	fed := testFederation(t, 33, 4)
	m := testModel(t, fed)
	sampler, err := NewFullSampler(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rounds = 50
	cfg.LocalSteps = 10
	cfg.Schedule = ExpDecay{Eta0: 1e9, Decay: 1}
	_, err = runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), false)
	if err == nil {
		t.Fatal("expected divergence error")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRunnerZeroParticipationRounds verifies that rounds where nobody shows
// up are harmless: the model simply does not move.
func TestRunnerZeroParticipationRounds(t *testing.T) {
	fed := testFederation(t, 34, 3)
	m := testModel(t, fed)
	// Tiny q: most rounds are empty.
	q := []float64{0.01, 0.01, 0.01}
	sampler, err := NewBernoulliSampler(q, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rounds = 30
	cfg.LocalSteps = 2
	res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalModel.IsFinite() {
		t.Fatal("model not finite after sparse run")
	}
	empty := 0
	for _, h := range res.History {
		if h.Participants == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("expected at least one empty round at q=0.01")
	}
}

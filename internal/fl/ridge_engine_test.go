package fl

import (
	"context"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
)

// TestRunnerModelAgnostic trains the same federation with both convex model
// families through the Model interface, proving the engine (and therefore
// the whole mechanism pipeline) is model-agnostic as the paper's
// Assumption-1 examples suggest.
func TestRunnerModelAgnostic(t *testing.T) {
	fed := testFederation(t, 20, 5)
	q := []float64{0.8, 0.8, 0.8, 0.8, 0.8}

	models := map[string]model.Model{}
	logit, err := model.NewLogisticRegression(fed.Train.Dim, fed.Train.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	models["logistic"] = logit
	ridge, err := model.NewRidgeRegression(fed.Train.Dim, fed.Train.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	models["ridge"] = ridge

	for name, m := range models {
		m := m
		t.Run(name, func(t *testing.T) {
			sampler, err := NewBernoulliSampler(q, stats.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Rounds = 60
			cfg.LocalSteps = 8
			cfg.Schedule = ExpDecay{Eta0: 0.05, Decay: 0.996}
			res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), true)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAcc < 0.5 {
				t.Fatalf("%s final accuracy %v too low", name, res.FinalAcc)
			}
			// Calibration must also work through the interface.
			cal, err := Calibrate(context.Background(), m, fed, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(cal.G) != fed.NumClients() || cal.Alpha <= 0 {
				t.Fatalf("%s calibration degenerate", name)
			}
		})
	}
}

// Package fl holds the federated-learning inputs the round engine
// (internal/engine) is configured with: the training-loop hyperparameters
// (Config), the randomized independent client participation samplers (each
// client joins round r with its own probability q_n), and the calibration
// run that estimates the per-client gradient-norm bounds G_n that the
// convergence bound and the pricing mechanism consume. The round protocol
// itself — FedAvg-style local SGD and the paper's unbiased aggregation rule
// (Lemma 1) — lives in internal/engine; callers compile an engine.Spec.
package fl

import (
	"errors"

	"unbiasedfl/internal/engine"
)

// ExpDecay is the experimental schedule from Section VI: η_r = Eta0·Decay^r
// (engine.ExpDecay, named here for the calibration configs built beside it).
type ExpDecay = engine.ExpDecay

// Config holds the training-loop hyperparameters shared by all setups.
type Config struct {
	Rounds     int             // R
	LocalSteps int             // E local SGD iterations per round
	BatchSize  int             // SGD mini-batch size (paper: 24)
	Schedule   engine.Schedule // learning-rate schedule
	EvalEvery  int             // evaluate global loss/accuracy every this many rounds
	Seed       uint64          // run seed; every client derives a private stream
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return errors.New("fl: rounds must be positive")
	case c.LocalSteps <= 0:
		return errors.New("fl: local steps must be positive")
	case c.BatchSize <= 0:
		return errors.New("fl: batch size must be positive")
	case c.Schedule == nil:
		return errors.New("fl: nil schedule")
	case c.EvalEvery <= 0:
		return errors.New("fl: eval interval must be positive")
	}
	return nil
}

// DefaultConfig mirrors the paper's hyperparameters at reduced scale (R and
// E are dialled down for laptop runs; cmd/flbench exposes flags to restore
// the paper's R = 1000, E = 100).
func DefaultConfig() Config {
	return Config{
		Rounds:     150,
		LocalSteps: 10,
		BatchSize:  24,
		Schedule:   ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  5,
		Seed:       1,
	}
}

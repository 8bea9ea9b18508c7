// Package fl forwards four names to their homes: the calibration run and its
// configuration in internal/experiment, the learning-rate schedule and the
// Bernoulli participation sampler in internal/engine. Only the benchmark
// module imports it, and a CI step fails if any other package does. The
// forwarders stay until the benchmark moves onto the new names; the package
// is deleted then.
package fl

import (
	"context"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
)

// Config is experiment.CalibrationConfig.
type Config = experiment.CalibrationConfig

// ExpDecay is engine.ExpDecay.
type ExpDecay = engine.ExpDecay

// Calibrate is experiment.Calibrate.
func Calibrate(ctx context.Context, m model.Model, fed *data.Federated, cfg Config, rounds int) (*experiment.Calibration, error) {
	return experiment.Calibrate(ctx, m, fed, cfg, rounds)
}

// NewBernoulliSampler is engine.NewBernoulliSampler.
func NewBernoulliSampler(q []float64, rng *stats.RNG) (*engine.BernoulliSampler, error) {
	return engine.NewBernoulliSampler(q, rng)
}

package experiment

import (
	"context"
	"errors"
	"fmt"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
)

// FidelityResult quantifies how well the Theorem-1 convergence bound — the
// server's training-free surrogate — predicts actual training outcomes
// across participation profiles. This validates the paper's central design
// decision: "a common surrogate used for this purpose is the convergence
// upper bound" (Section IV).
type FidelityResult struct {
	// Bounds[i] is the Theorem-1 objective of profile i; Losses[i] the
	// empirical final loss after training under profile i.
	Bounds []float64
	Losses []float64
	// KendallTau is the rank correlation between the two (+1 = the bound
	// orders profiles exactly as training does).
	KendallTau float64
}

// BoundFidelity draws random participation profiles, evaluates the bound
// and trains the model under each, and reports the rank agreement.
// Cancelling ctx aborts promptly with ctx.Err().
func BoundFidelity(ctx context.Context, env *Environment, profiles int, seed uint64) (*FidelityResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	if profiles < 2 {
		return nil, errors.New("experiment: need at least two profiles")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	n := env.Fed.NumClients()
	res := &FidelityResult{
		Bounds: make([]float64, 0, profiles),
		Losses: make([]float64, 0, profiles),
	}
	for i := 0; i < profiles; i++ {
		q := make([]float64, n)
		// Spread profiles across low/medium/high regimes so the ranking
		// problem is non-trivial.
		base := 0.1 + 0.8*float64(i)/float64(profiles-1)
		for j := range q {
			q[j] = clampQ(base*(0.5+rng.Float64()), env.Params.QMin, env.Params.QMax)
		}
		bound, err := env.Params.ServerObjective(q)
		if err != nil {
			return nil, err
		}

		var finalLoss float64
		for run := 0; run < env.Opts.Runs; run++ {
			sampler, err := engine.NewBernoulliSampler(q, stats.NewRNG(seed+uint64(1000*i+run+1)))
			if err != nil {
				return nil, err
			}
			out, err := Launch(ctx, env, Leg{
				EvalEvery: env.Opts.Rounds, // final evaluation only
				Seed:      seed + uint64(7000*i+run),
				Sampler:   sampler,
			}, env.Run.execution())
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, fmt.Errorf("profile %d run %d: %w", i, run, err)
			}
			finalLoss += out.FinalLoss / float64(env.Opts.Runs)
		}
		res.Bounds = append(res.Bounds, bound)
		res.Losses = append(res.Losses, finalLoss)
	}
	tau, err := stats.KendallTau(res.Bounds, res.Losses)
	if err != nil {
		return nil, err
	}
	res.KendallTau = tau
	return res, nil
}

func clampQ(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

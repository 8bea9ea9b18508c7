package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// GapPoint is the measured optimality gap E[F(w^R)] − F* after R rounds.
type GapPoint struct {
	Rounds int
	Gap    float64
}

// ConvergenceRate measures the empirical optimality gap across training
// horizons under full participation and the theorem's decaying step size,
// validating the O(1/R) shape of Theorem 1. F* is computed by the
// deterministic solver on the pooled data. Cancelling ctx aborts promptly
// with ctx.Err().
func ConvergenceRate(ctx context.Context, env *Environment, horizons []int, seed uint64) ([]GapPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	if len(horizons) == 0 {
		return nil, errors.New("experiment: no horizons")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sorted := append([]int(nil), horizons...)
	sort.Ints(sorted)
	if sorted[0] <= 0 {
		return nil, errors.New("experiment: horizons must be positive")
	}

	opt, err := model.Solve(env.Model, env.Fed.Train, nil, model.SolveOptions{
		MaxIters: 4000, Tolerance: 1e-8,
	})
	if err != nil {
		return nil, fmt.Errorf("reference optimum: %w", err)
	}
	fstar, err := env.Model.Loss(opt, env.Fed.Train)
	if err != nil {
		return nil, err
	}

	full := make([]float64, env.Fed.NumClients())
	for n := range full {
		full[n] = 1
	}
	out := make([]GapPoint, 0, len(sorted))
	for _, r := range sorted {
		sampler, err := engine.NewBernoulliSampler(full, stats.NewRNG(seed)) // q ≡ 1 draws no coin
		if err != nil {
			return nil, err
		}
		res, err := Launch(ctx, env, Leg{
			Rounds:    r,
			EvalEvery: r, // final evaluation only
			Schedule:  engine.TheoremDecay{L: env.Cal.L, Mu: env.Cal.Mu, E: env.Opts.LocalSteps},
			Seed:      seed,
			Sampler:   sampler,
		}, env.Run.execution())
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("horizon %d: %w", r, err)
		}
		gap := res.FinalLoss - fstar
		if gap < 0 {
			gap = 0 // stochastic evaluation can dip below the numeric F*
		}
		out = append(out, GapPoint{Rounds: r, Gap: gap})
	}
	return out, nil
}

// FitRateExponent least-squares fits gap ≈ C·R^p on log scales and returns
// p (Theorem 1 predicts p ≈ −1 in the variance-dominated regime). Points
// with zero gap are skipped; at least two positive points are required.
func FitRateExponent(points []GapPoint) (float64, error) {
	var xs, ys []float64
	for _, pt := range points {
		if pt.Gap > 0 {
			xs = append(xs, tensor.Log(float64(pt.Rounds)))
			ys = append(ys, tensor.Log(pt.Gap))
		}
	}
	if len(xs) < 2 {
		return 0, errors.New("experiment: need two positive-gap points to fit a rate")
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, errors.New("experiment: degenerate horizons")
	}
	return num / den, nil
}

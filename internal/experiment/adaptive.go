package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
)

// AdaptiveResult compares static pricing (the paper's design: one
// calibration, one price vector posted for the whole horizon) against
// adaptive repricing, where the server re-estimates G_n from live gradient
// statistics every epoch and re-solves the game. This addresses the
// "chicken and egg" discussion of Section IV: G_n drifts as training
// converges (gradients shrink), so day-0 prices become miscalibrated.
//
// Bounds and spends are evaluated under the final, best-informed G_n:
//   - the static arm keeps its posted prices; its clients' best responses
//     drift with their true intrinsic terms, and so does the server's
//     realized spend (it may silently leave or exceed the budget);
//   - the adaptive arm re-prices within budget at every epoch, so its spend
//     tracks B by construction.
type AdaptiveResult struct {
	StaticLoss   float64
	AdaptiveLoss float64
	// StaticBound is the Theorem-1 term of the participation induced by the
	// day-0 prices under the final G_n estimates.
	StaticBound float64
	// StaticSpend is the realized payment of the static prices under the
	// drifted best responses; its distance from B quantifies miscalibration.
	StaticSpend float64
	// AdaptiveBound is the Theorem-1 term of the final informed equilibrium.
	AdaptiveBound float64
	// AdaptiveSpend is the informed equilibrium's spend (<= B).
	AdaptiveSpend float64
	// Epochs is the number of pricing epochs the adaptive run used.
	Epochs int
}

// RunAdaptive trains once with static pricing and once with per-epoch
// repricing, both under the same total round budget. Cancelling ctx aborts
// promptly with ctx.Err().
func RunAdaptive(ctx context.Context, env *Environment, epochs int, seed uint64) (*AdaptiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	if epochs < 2 {
		return nil, errors.New("experiment: adaptive repricing needs at least two epochs")
	}
	totalRounds := env.Opts.Rounds
	perEpoch := totalRounds / epochs
	if perEpoch < 1 {
		return nil, errors.New("experiment: too many epochs for the round budget")
	}

	proposed, err := game.SchemeByName(game.SchemeNameProposed)
	if err != nil {
		return nil, err
	}

	// Static arm: one equilibrium for the whole horizon. Pricing flows
	// through the environment's memo-cache: the static solve and the
	// adaptive arm's epoch-0 solve share one game fingerprint, so the
	// engine runs once for both.
	staticOutcome, err := env.priceScheme(proposed, env.Params)
	if err != nil {
		return nil, err
	}
	staticRun, err := trainWithQ(ctx, env, staticOutcome.Q, totalRounds, seed)
	if err != nil {
		return nil, fmt.Errorf("static arm: %w", err)
	}

	// Adaptive arm: re-estimate G_n and re-price each epoch.
	params := env.Params.Clone()
	var adaptiveLoss float64
	adaptiveSeed := seed + 101
	for e := 0; e < epochs; e++ {
		outcome, err := env.priceScheme(proposed, params)
		if err != nil {
			return nil, fmt.Errorf("adaptive epoch %d pricing: %w", e, err)
		}
		run, err := trainWithQ(ctx, env, outcome.Q, perEpoch, adaptiveSeed+uint64(e))
		if err != nil {
			return nil, fmt.Errorf("adaptive epoch %d: %w", e, err)
		}
		adaptiveLoss = run.FinalLoss
		// Refresh G_n from the epoch's observed gradient statistics; keep
		// the previous estimate for clients that never participated.
		for n, sq := range run.GradSqNorm {
			if sq > 0 {
				params.G[n] = math.Sqrt(sq)
			}
		}
	}

	// Evaluate both arms under the final G_n estimates.
	final := env.Params.Clone()
	final.G = append([]float64(nil), params.G...)

	// Static arm: the day-0 prices are posted; clients re-best-respond
	// under their drifted intrinsic terms.
	_, staticSpend, staticBound, err := final.EvaluateRealized(staticOutcome.P)
	if err != nil {
		return nil, err
	}

	informed, err := env.priceScheme(proposed, final)
	if err != nil {
		return nil, err
	}

	return &AdaptiveResult{
		StaticLoss:    staticRun.FinalLoss,
		AdaptiveLoss:  adaptiveLoss,
		StaticBound:   staticBound,
		StaticSpend:   staticSpend,
		AdaptiveBound: informed.ServerObj,
		AdaptiveSpend: informed.Spent,
		Epochs:        epochs,
	}, nil
}

// trainWithQ runs one training segment under fixed participation levels.
// Each segment restarts from w0; the comparison is between pricing policies
// over equal-length segments, the regime where the bound's variance term
// dominates.
func trainWithQ(ctx context.Context, env *Environment, q []float64, rounds int, seed uint64) (*engine.RunResult, error) {
	qc := env.Params.ClampQ(q)
	sampler, err := fl.NewBernoulliSampler(qc, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return Launch(ctx, env, Leg{
		Rounds:    rounds,
		EvalEvery: rounds,
		Seed:      seed ^ 0xABCD,
		Sampler:   sampler,
	}, env.Run.execution())
}

package fl

import (
	"context"
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
)

// Calibration captures the data- and task-dependent constants the game model
// needs before any pricing decision can be made (Section IV-A: "In practice,
// we can estimate G_n by letting the participated clients send back their
// actual local stochastic gradient norms computed along the trajectory of
// the model updates").
type Calibration struct {
	G     []float64 // per-client gradient-norm bound estimates G_n
	L     float64   // smoothness upper bound
	Mu    float64   // strong-convexity modulus (the model's L2 coefficient)
	Alpha float64   // α = 8LE/μ² from Theorem 1
}

// Calibrate runs a short full-participation training phase and distills the
// per-client gradient statistics into G_n estimates, plus the smoothness and
// α constants. rounds controls the calibration length. Cancelling ctx stops
// the calibration run promptly with ctx.Err(). It compiles its own
// engine.Spec: the launch path of priced runs, experiment.Launch, imports
// this package and cannot be called from here. It is the one Spec that sets
// GradNorms, so it runs flat on the local backend, from round zero and
// without checkpoints — the only shape Spec.Validate accepts with it — and
// its steps add each ‖g‖² to the client's running mean, which reaches it
// through RunResult.GradSqNorm.
func Calibrate(
	ctx context.Context, m model.Model, fed *data.Federated, cfg Config, rounds int,
) (*Calibration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rounds <= 0 {
		return nil, errors.New("fl: calibration needs at least one round")
	}
	if m == nil || fed == nil {
		return nil, errors.New("fl: nil model or federation")
	}
	if m.StrongConvexity() <= 0 {
		return nil, errors.New("fl: calibration requires mu > 0 (strong convexity)")
	}
	full, err := NewFullSampler(fed.NumClients())
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(ctx, engine.Spec{
		Model:      m,
		Fed:        fed,
		Rounds:     rounds,
		LocalSteps: cfg.LocalSteps,
		BatchSize:  cfg.BatchSize,
		Schedule:   cfg.Schedule,
		EvalEvery:  rounds, // single evaluation at the end
		Seed:       cfg.Seed,
		Sampler:    full,
		Aggregator: engine.UnbiasedAggregator{},
		GradNorms:  true,
	}, engine.NewLocalBackend(engine.LocalOptions{Parallel: true}))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	g := make([]float64, fed.NumClients())
	for n, sq := range res.GradSqNorm {
		if sq <= 0 {
			return nil, fmt.Errorf("fl: client %d produced no gradient statistics", n)
		}
		g[n] = math.Sqrt(sq)
	}
	l, err := m.EstimateSmoothness(fed.Train)
	if err != nil {
		return nil, err
	}
	return &Calibration{
		G:     g,
		L:     l,
		Mu:    m.StrongConvexity(),
		Alpha: 8 * l * float64(cfg.LocalSteps) / (m.StrongConvexity() * m.StrongConvexity()),
	}, nil
}

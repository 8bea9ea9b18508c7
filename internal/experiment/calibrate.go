package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// CalibrationConfig holds the training-loop hyperparameters a calibration
// run trains with. Calibrate reads LocalSteps, BatchSize, Schedule and Seed;
// it runs the rounds it is given and evaluates nothing, so it reads neither
// Rounds nor EvalEvery.
type CalibrationConfig struct {
	Rounds     int             // R
	LocalSteps int             // E local SGD iterations per round
	BatchSize  int             // SGD mini-batch size (paper: 24)
	Schedule   engine.Schedule // learning-rate schedule
	EvalEvery  int             // evaluate global loss/accuracy every this many rounds
	Seed       uint64          // run seed; every client derives a private stream
}

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
// the calibration run promptly with ctx.Err().
//
// The run is an ordinary flat engine run on the local backend whose model
// observes its own steps (see normObserver), so every client's shard must be
// its own: a federation whose clients share shards (data.ReplicateClients)
// is refused, and is calibrated at shard scale instead, as BuildSetup does.
func Calibrate(
	ctx context.Context, m model.Model, fed *data.Federated, cfg CalibrationConfig, rounds int,
) (*Calibration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rounds <= 0 {
		return nil, errors.New("experiment: calibration needs at least one round")
	}
	if m == nil || fed == nil {
		return nil, errors.New("experiment: nil model or federation")
	}
	if m.StrongConvexity() <= 0 {
		return nil, errors.New("experiment: calibration requires mu > 0 (strong convexity)")
	}
	obs := &normObserver{
		Model:  m,
		client: make(map[*data.Dataset]int, fed.NumClients()),
		sq:     make([]stats.Welford, fed.NumClients()),
	}
	for n, shard := range fed.Clients {
		if k, dup := obs.client[shard]; dup {
			return nil, fmt.Errorf("experiment: clients %d and %d share a shard; calibrate at shard scale", k, n)
		}
		obs.client[shard] = n
	}
	q := make([]float64, fed.NumClients())
	for n := range q {
		q[n] = 1
	}
	full, err := engine.NewBernoulliSampler(q, stats.NewRNG(cfg.Seed)) // q ≡ 1 draws no coin
	if err != nil {
		return nil, err
	}
	if _, err := engine.Run(ctx, engine.Spec{
		Model:      obs,
		Fed:        fed,
		Rounds:     rounds,
		LocalSteps: cfg.LocalSteps,
		BatchSize:  cfg.BatchSize,
		Schedule:   cfg.Schedule,
		EvalEvery:  rounds, // the engine's one evaluation, which normObserver skips
		Seed:       cfg.Seed,
		Sampler:    full,
	}, engine.NewLocalBackend(engine.LocalOptions{Parallel: true})); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	g := make([]float64, len(obs.sq))
	for n := range obs.sq {
		sq := obs.sq[n].Mean()
		if sq <= 0 {
			return nil, fmt.Errorf("experiment: client %d produced no gradient statistics", n)
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

// normObserver is the calibration run's model: every local step is the
// inner model's SGDStep, whose ‖g‖² it adds to the stepping client's running
// mean. The client is the one whose shard the step reads. A client's steps
// run on one worker per round, and rounds are barriers, so each Welford has
// one writer at a time and needs no lock. It evaluates nothing (see Loss).
type normObserver struct {
	model.Model
	client map[*data.Dataset]int
	sq     []stats.Welford
}

// Step implements model.LocalStepper.
func (o *normObserver) Step(
	w tensor.Vec, ds *data.Dataset, batchSize int, lr float64, r *stats.RNG, s *model.Scratch,
) error {
	sq, err := o.Model.SGDStep(w, ds, batchSize, lr, r, s)
	if err != nil {
		return err
	}
	o.sq[o.client[ds]].Add(sq)
	return nil
}

// Loss implements model.Model without reading ds. The engine evaluates its
// model at least once, at the last round, but Calibrate keeps only the
// gradient norms of the steps and discards the run's loss and accuracy, so
// evaluating the whole train set (and, in Accuracy, the test set) would be
// wasted work. G_n, L, μ and α do not depend on it.
func (o *normObserver) Loss(tensor.Vec, *data.Dataset) (float64, error) { return 0, nil }

// Accuracy implements model.Model without reading ds; see Loss.
func (o *normObserver) Accuracy(tensor.Vec, *data.Dataset) (float64, error) { return 0, nil }

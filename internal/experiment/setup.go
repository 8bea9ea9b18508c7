// Package experiment reproduces the paper's evaluation (Section VI): the
// three Table-I setups over Synthetic, MNIST-like, and EMNIST-like data, the
// pricing-scheme comparison of Fig. 4 and Tables II–IV, the negative-payment
// counts of Table V, and the parameter-impact studies of Figs. 5–7.
//
// Every experiment flows through an Environment: generated federated data, a
// calibrated convergence-bound model (the G_n and α estimates of Section
// IV-A), the game parameters of Table I, and a hardware timing model that
// substitutes the paper's Raspberry-Pi prototype (internal/sim).
package experiment

import (
	"context"
	"errors"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/sim"
	"unbiasedfl/internal/stats"
)

// SetupID selects one of the paper's three experimental setups.
type SetupID int

// The paper's setups (Table I).
const (
	// Setup1 is the Synthetic(1,1) dataset: B=200, mean c=50, mean v=4000.
	Setup1 SetupID = iota + 1
	// Setup2 is the MNIST-like dataset: B=40, mean c=20, mean v=30000.
	Setup2
	// Setup3 is the EMNIST-like dataset: B=500, mean c=80, mean v=10000.
	Setup3
)

// String implements fmt.Stringer.
func (s SetupID) String() string {
	switch s {
	case Setup1:
		return "Setup 1 (Synthetic)"
	case Setup2:
		return "Setup 2 (MNIST-like)"
	case Setup3:
		return "Setup 3 (EMNIST-like)"
	default:
		return fmt.Sprintf("Setup %d", int(s))
	}
}

// TableI returns the paper's Table-I economic parameters for a setup.
func TableI(id SetupID) (budget, meanC, meanV float64, err error) {
	switch id {
	case Setup1:
		return 200, 50, 4000, nil
	case Setup2:
		return 40, 20, 30000, nil
	case Setup3:
		return 500, 80, 10000, nil
	default:
		return 0, 0, 0, fmt.Errorf("experiment: unknown setup %d", int(id))
	}
}

// Options scales an experiment. The zero value is invalid; use
// DefaultOptions (laptop-scale) or PaperOptions (the paper's full scale).
type Options struct {
	NumClients   int
	TotalSamples int // 0 = per-setup default scaled by NumClients/40
	Rounds       int // training horizon R
	LocalSteps   int // E
	BatchSize    int
	EvalEvery    int
	Calibration  int // calibration rounds for G_n estimation
	Seed         uint64
	Runs         int // independent repetitions to average
	// MaxClientClasses caps the number of distinct labels a client shard may
	// hold in the image-like setups (2 and 3), sharpening the non-IID label
	// skew beyond the setup defaults. 0 keeps the setup's default range;
	// Setup 1's synthetic generator has its own structural skew and ignores
	// the cap.
	MaxClientClasses int
	// FleetShards, when positive, is the fleet-scale knob: data generation
	// and bound calibration run at this many distinct client shards, and the
	// fleet is then synthesized to NumClients by sharing each shard across
	// NumClients/FleetShards devices by pointer (data.ReplicateClients).
	// Clients sharing a shard keep distinct minibatch trajectories — each
	// owns a private RNG cursor in the engine — and the economics (costs,
	// valuations, budget, pricing) are still drawn and solved per client, so
	// a 10^6-client market prices 10^6 individual devices while the data
	// footprint stays O(FleetShards·samples). 0 materializes every client's
	// shard individually (the historical behaviour).
	FleetShards int
}

// DefaultOptions is the laptop-scale configuration used by tests, examples,
// and the benchmark harness.
func DefaultOptions() Options {
	return Options{
		NumClients:  12,
		Rounds:      120,
		LocalSteps:  10,
		BatchSize:   24,
		EvalEvery:   5,
		Calibration: 3,
		Seed:        1,
		Runs:        3,
	}
}

// PaperOptions restores the paper's full scale (40 devices, R=1000, E=100,
// 20 runs). One seed of all three setups at 2 runs took 214–257 s on a
// 2-vCPU machine, so the full 20 runs take about 40 minutes.
func PaperOptions() Options {
	return Options{
		NumClients:  40,
		Rounds:      1000,
		LocalSteps:  100,
		BatchSize:   24,
		EvalEvery:   20,
		Calibration: 5,
		Seed:        1,
		Runs:        20,
	}
}

func (o Options) validate() error {
	switch {
	case o.NumClients <= 1:
		return errors.New("experiment: need at least two clients")
	case o.Rounds <= 0 || o.LocalSteps <= 0 || o.BatchSize <= 0:
		return errors.New("experiment: invalid training scale")
	case o.EvalEvery <= 0:
		return errors.New("experiment: invalid eval interval")
	case o.Calibration <= 0:
		return errors.New("experiment: need calibration rounds")
	case o.Runs <= 0:
		return errors.New("experiment: need at least one run")
	case o.MaxClientClasses < 0:
		return errors.New("experiment: negative class cap")
	case o.FleetShards < 0:
		return errors.New("experiment: negative fleet shard count")
	case o.FleetShards == 1:
		return errors.New("experiment: need at least two fleet shards")
	case o.FleetShards > o.NumClients:
		return errors.New("experiment: more fleet shards than clients")
	}
	return nil
}

// Environment is a fully-prepared experimental world for one setup: what a
// run computes on (data, model, calibration, game, timing, and in Membership
// who is in the fleet when) plus, in Run, how runs launched from it execute.
// Every training run an experiment makes from it is one Launch.
type Environment struct {
	ID     SetupID
	Opts   Options
	Fed    *data.Federated
	Model  *model.LogisticRegression
	Cal    *fl.Calibration
	Params *game.Params
	Timing *sim.TimingModel
	// MeanC and MeanV are the Table-I means actually used (exposed so the
	// parameter sweeps of Figs. 5–7 can rescale them).
	MeanC, MeanV float64
	// Cache memoizes equilibrium solves and scheme pricings on this
	// environment's games, so repeated queries (the same scheme re-priced
	// inside Compare, repeated Session.Equilibrium calls, a scenario's
	// truthful and reported pricings of an honest fleet) solve once. Nil
	// disables memoization.
	Cache *game.Cache
	// Run is how every training run launched from this environment executes
	// (see RunConfig): backend, cluster knobs, group size, and — with
	// Checkpoint.Path as a per-leg prefix — durability. The zero value is the
	// flat in-process backend with no checkpoint.
	Run RunConfig
	// Membership, when non-nil, makes every training run launched from this
	// environment elastic: clients join and leave at the plan's round
	// boundaries, the market is re-priced over each epoch's active fleet
	// (warm-started, bit-identical to cold solves), and aggregation weights
	// are renormalized over the members present. See engine.MembershipPlan.
	Membership *engine.MembershipPlan
}

// Equilibrium solves (or returns the memoized) Stackelberg equilibrium of
// the environment's game.
func (e *Environment) Equilibrium() (*game.Equilibrium, error) {
	if e.Cache == nil {
		return e.Params.SolveKKT()
	}
	return e.Cache.Solve(e.Params)
}

// Price prices params under ps through the environment's memo-cache when
// one is attached.
func (e *Environment) Price(ps game.PricingScheme, params *game.Params) (*game.Outcome, error) {
	if e.Cache == nil {
		return ps.Price(params)
	}
	return e.Cache.Price(ps, params)
}

// regularization used across all setups (the convex multinomial logistic
// regression of Section VI-A2).
const mu = 0.01

// BuildSetup generates data, calibrates the bound constants, and assembles
// the game for the given setup. Cancelling ctx aborts the (training-heavy)
// calibration phase promptly with ctx.Err().
func BuildSetup(ctx context.Context, id SetupID, opts Options) (*Environment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	budget, meanC, meanV, err := TableI(id)
	if err != nil {
		return nil, err
	}
	// Table I's budgets are calibrated for the paper's 40-device fleet.
	// Scale B with the fleet so per-client budget scarcity — the force that
	// separates the pricing schemes — is preserved at reduced scale.
	budget *= float64(opts.NumClients) / 40
	root := stats.NewRNG(opts.Seed ^ (uint64(id) << 32))

	// With FleetShards set, the data- and calibration-heavy phases run at
	// shard scale; the fleet is synthesized afterwards by pointer sharing.
	dataOpts := opts
	if opts.FleetShards > 0 {
		dataOpts.NumClients = opts.FleetShards
	}
	fed, err := generateData(id, dataOpts, root.Split())
	if err != nil {
		return nil, fmt.Errorf("%v data: %w", id, err)
	}
	m, err := model.NewLogisticRegression(fed.Train.Dim, fed.Train.Classes, mu)
	if err != nil {
		return nil, err
	}

	runCfg := fl.Config{
		Rounds:     opts.Rounds,
		LocalSteps: opts.LocalSteps,
		BatchSize:  opts.BatchSize,
		Schedule:   fl.ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  opts.EvalEvery,
		Seed:       root.Uint64(),
	}
	cal, err := fl.Calibrate(ctx, m, fed, runCfg, opts.Calibration)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("%v calibration: %w", id, err)
	}
	if dataOpts.NumClients != opts.NumClients {
		// Expand shard-scale data and calibration to the full fleet: clients
		// sharing a shard share its gradient-norm bound estimate G_n, exactly
		// as they share the shard the estimate was calibrated on.
		if fed, err = data.ReplicateClients(fed, opts.NumClients); err != nil {
			return nil, fmt.Errorf("%v fleet: %w", id, err)
		}
		g := make([]float64, opts.NumClients)
		for n := range g {
			g[n] = cal.G[n%dataOpts.NumClients]
		}
		expanded := *cal
		expanded.G = g
		cal = &expanded
	}

	params, err := buildGame(fed, cal, root.Split(), budget, meanC, meanV, float64(opts.Rounds))
	if err != nil {
		return nil, fmt.Errorf("%v game: %w", id, err)
	}

	timing, err := sim.HeterogeneousTimings(root.Split(), sim.DefaultTimingConfig(opts.NumClients))
	if err != nil {
		return nil, err
	}
	return &Environment{
		ID: id, Opts: opts, Fed: fed, Model: m, Cal: cal,
		Params: params, Timing: timing, MeanC: meanC, MeanV: meanV,
		Cache: game.NewCache(0),
	}, nil
}

func generateData(id SetupID, opts Options, r *stats.RNG) (*data.Federated, error) {
	scale := float64(opts.NumClients) / 40
	switch id {
	case Setup1:
		cfg := data.DefaultSyntheticConfig()
		cfg.NumClients = opts.NumClients
		cfg.TotalSamples = opts.TotalSamples
		if cfg.TotalSamples == 0 {
			cfg.TotalSamples = int(22377 * scale)
		}
		return data.GenerateSynthetic(r, cfg)
	case Setup2:
		cfg := data.MNISTLikeConfig()
		cfg.NumClients = opts.NumClients
		cfg.TotalSamples = opts.TotalSamples
		if cfg.TotalSamples == 0 {
			cfg.TotalSamples = int(14463 * scale)
		}
		cfg.TestSamples = 100 * opts.NumClients / 2
		applyClassCap(&cfg, opts.MaxClientClasses)
		return data.GenerateImageLike(r, cfg)
	case Setup3:
		cfg := data.EMNISTLikeConfig()
		cfg.NumClients = opts.NumClients
		cfg.TotalSamples = opts.TotalSamples
		if cfg.TotalSamples == 0 {
			cfg.TotalSamples = int(35155 * scale)
		}
		cfg.TestSamples = 100 * opts.NumClients / 2
		applyClassCap(&cfg, opts.MaxClientClasses)
		return data.GenerateImageLike(r, cfg)
	default:
		return nil, fmt.Errorf("experiment: unknown setup %d", int(id))
	}
}

// applyClassCap tightens an image-like config's per-client label range to at
// most cap classes (0 = leave the setup default alone). It only ever
// narrows: a cap above the setup default is a no-op, so the knob can
// sharpen skew but never accidentally relax it.
func applyClassCap(cfg *data.ImageLikeConfig, cap int) {
	if cap <= 0 || cap >= cfg.MaxClasses {
		return
	}
	cfg.MaxClasses = cap
	if cfg.MinClasses > cfg.MaxClasses {
		cfg.MinClasses = cfg.MaxClasses
	}
}

// buildGame assembles game.Params from Table-I economics and the calibrated
// data constants. The raw α = 8LE/μ² of Theorem 1 is a worst-case constant;
// following the paper ("we estimate the task-related parameter α ...
// following a similar approach as [22]") we rescale it so that the average
// intrinsic marginal value (α/R)·v̄·mean(a²G²) equals the average marginal
// cost c̄ at full participation. This keeps the Table-I budgets meaningful.
// The rescaled α is fixed per setup; the sweeps of Figs. 5–7 and Table V hold
// it constant.
func buildGame(
	fed *data.Federated, cal *fl.Calibration, r *stats.RNG,
	budget, meanC, meanV, rounds float64,
) (*game.Params, error) {
	n := fed.NumClients()
	c, err := stats.Exponential(r, n, meanC)
	if err != nil {
		return nil, err
	}
	for i := range c {
		c[i] += meanC * 0.05 // keep costs strictly positive
	}
	v, err := stats.Exponential(r, n, meanV)
	if err != nil {
		return nil, err
	}

	var meanD float64
	for i := 0; i < n; i++ {
		d := fed.Weights[i] * fed.Weights[i] * cal.G[i] * cal.G[i]
		meanD += d / float64(n)
	}
	if meanD <= 0 {
		return nil, errors.New("experiment: degenerate data-quality estimates")
	}
	refV := meanV
	if refV <= 0 {
		refV = 4000 // Table V's v=0 column keeps Setup 1's calibrated α
	}
	alpha := rounds * meanC / (refV * meanD)

	p := &game.Params{
		A:     append([]float64(nil), fed.Weights...),
		G:     append([]float64(nil), cal.G...),
		C:     c,
		V:     v,
		Alpha: alpha,
		R:     rounds,
		B:     budget,
		QMax:  1,
		QMin:  game.DefaultQMin,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

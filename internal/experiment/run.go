package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/sim"
	"unbiasedfl/internal/stats"
)

// SchemeRun is one pricing scheme's full outcome on an environment: the
// priced market, the induced training trajectories averaged over runs, and
// the client-side economics.
type SchemeRun struct {
	// Scheme is the registry name of the pricing scheme ("proposed",
	// "uniform", "weighted", or any name registered via
	// game.RegisterScheme).
	Scheme  string
	Outcome *game.Outcome
	// Points holds the run-averaged (time, loss, accuracy) trajectory.
	Points []sim.TimedPoint
	// FinalLoss and FinalAccuracy are averages of the last evaluation.
	FinalLoss     float64
	FinalAccuracy float64
	// TotalClientUtility is Σ_n U_n at the priced outcome (improvement
	// terms omitted — they cancel in cross-scheme gains; see Table IV).
	TotalClientUtility float64
	// NegativePayments counts clients with P_n < 0.
	NegativePayments int
}

// RunScheme prices the environment's market with the named scheme (resolved
// through the pricing registry), trains the model Opts.Runs times with the
// induced participation levels, and averages the trajectories. Cancelling
// ctx aborts promptly with ctx.Err(). A non-nil obs receives SchemeSolved,
// then per-round RoundStart/RoundEnd streams, then SchemeDone.
func RunScheme(ctx context.Context, env *Environment, scheme string, obs Observer) (*SchemeRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	ps, err := game.SchemeByName(scheme)
	if err != nil {
		return nil, err
	}
	return runRegistered(ctx, env, ps, obs)
}

// runRegistered solves and trains one resolved scheme. Pricing flows
// through the environment's equilibrium memo-cache, so re-running a scheme
// on the same environment (repeated Compare calls, RunScheme after
// Compare) prices once.
func runRegistered(ctx context.Context, env *Environment, ps game.PricingScheme, obs Observer) (*SchemeRun, error) {
	outcome, err := env.Price(ps, env.Params)
	if err != nil {
		return nil, fmt.Errorf("%v pricing: %w", ps.Name(), err)
	}
	emit(obs, SchemeSolved{Scheme: ps.Name(), Outcome: outcome})
	run, err := runPricedParallel(ctx, env, ps.Name(), outcome, true, obs)
	if err != nil {
		return nil, err
	}
	emit(obs, SchemeDone{Scheme: ps.Name(), Run: run})
	return run, nil
}

// runPricedParallel trains Opts.Runs legs under a fixed priced outcome and
// averages their timed trajectories. Each leg is one Launch under the
// environment's RunConfig, with the event stream pointed at obs and — when
// the config carries a checkpoint prefix — its own checkpoint file,
// "<prefix>-<scheme>-run<i>.ckpt". parallel false keeps the local backend
// off its worker pool (see Leg.Serial).
func runPricedParallel(
	ctx context.Context, env *Environment, scheme string, outcome *game.Outcome,
	parallel bool, obs Observer,
) (*SchemeRun, error) {
	// The unbiased estimator needs q > 0; clamp priced-out clients to the
	// game's floor (they almost never participate but remain reachable).
	q := env.Params.ClampQ(outcome.Q)

	cfg := env.Run
	cfg.Events = obs
	var (
		times  [][]float64
		losses [][]float64
		accs   [][]float64
	)
	for run := 0; run < env.Opts.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := env.Opts.Seed + 7919*uint64(run+1) + schemeSeedSalt(scheme)
		sampler, err := fl.NewBernoulliSampler(q, stats.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		if prefix := env.Run.Checkpoint.Path; prefix != "" {
			cfg.Checkpoint.Path = fmt.Sprintf("%s-%s-run%d.ckpt", prefix, scheme, run)
		}
		// Every elastic leg re-prices into its own copy of q, so legs stay
		// independent.
		res, err := Launch(ctx, env, Leg{
			Scheme:          scheme,
			Run:             run,
			Seed:            seed ^ 0xDEADBEEF,
			Sampler:         sampler,
			Membership:      env.Membership,
			Q:               append([]float64(nil), q...),
			CheckpointLabel: fmt.Sprintf("%s/run%d", scheme, run),
			CheckpointSeed:  seed,
			Serial:          !parallel,
		}, cfg)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("%v run %d: %w", scheme, run, err)
		}
		timed, err := env.Timing.Timeline(res.History, env.Opts.LocalSteps)
		if err != nil {
			return nil, fmt.Errorf("%v run %d: %w", scheme, run, err)
		}
		ts := make([]float64, len(timed))
		ls := make([]float64, len(timed))
		as := make([]float64, len(timed))
		for i, pt := range timed {
			ts[i] = pt.Elapsed.Seconds()
			ls[i] = pt.Loss
			as[i] = pt.Accuracy
		}
		times = append(times, ts)
		losses = append(losses, ls)
		accs = append(accs, as)
	}

	meanT, err := stats.SeriesMean(times)
	if err != nil {
		return nil, err
	}
	meanL, err := stats.SeriesMean(losses)
	if err != nil {
		return nil, err
	}
	meanA, err := stats.SeriesMean(accs)
	if err != nil {
		return nil, err
	}
	points := make([]sim.TimedPoint, len(meanT))
	for i := range points {
		points[i] = sim.TimedPoint{
			Elapsed:  time.Duration(meanT[i] * float64(time.Second)),
			Loss:     meanL[i],
			Accuracy: meanA[i],
		}
	}

	utility, err := env.Params.TotalClientUtility(outcome.P, q, nil)
	if err != nil {
		return nil, err
	}
	sr := &SchemeRun{
		Scheme:             scheme,
		Outcome:            outcome,
		Points:             points,
		TotalClientUtility: utility,
		NegativePayments:   countNegative(outcome.P),
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		sr.FinalLoss = last.Loss
		sr.FinalAccuracy = last.Accuracy
	}
	return sr, nil
}

// schemeSeedSalt keeps per-scheme training seeds distinct. The built-ins'
// salts are fixed literals — every committed trajectory depends on them —
// and third-party schemes hash their name.
func schemeSeedSalt(scheme string) uint64 {
	switch scheme {
	case game.SchemeNameProposed:
		return 1 << 24
	case game.SchemeNameUniform:
		return 2 << 24
	case game.SchemeNameWeighted:
		return 3 << 24
	}
	// FNV-1a over the name, shifted onto the same byte as the built-in salts.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(scheme); i++ {
		h ^= uint64(scheme[i])
		h *= 1099511628211
	}
	return (h | 0x04) << 24 // | 0x04 keeps clear of the built-in salts
}

func countNegative(prices []float64) int {
	c := 0
	for _, p := range prices {
		if p < 0 {
			c++
		}
	}
	return c
}

// Comparison holds every registered scheme's run on one environment, the
// raw material for Fig. 4 and Tables II–IV.
type Comparison struct {
	Env *Environment
	// Schemes is ordered by the pricing registry: the paper's trio first
	// (proposed, weighted, uniform), then third-party registrations in
	// registration order.
	Schemes []*SchemeRun
}

// Compare runs every pricing scheme in the registry on env — the paper's
// built-in trio plus any scheme added via game.RegisterScheme. Cancelling
// ctx aborts promptly with ctx.Err().
func Compare(ctx context.Context, env *Environment, obs Observer) (*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	names := game.SchemeNames()
	out := &Comparison{Env: env, Schemes: make([]*SchemeRun, 0, len(names))}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps, err := game.SchemeByName(name)
		if err != nil {
			// Unregistered between listing and lookup; skip rather than fail.
			continue
		}
		run, err := runRegistered(ctx, env, ps, obs)
		if err != nil {
			return nil, err
		}
		out.Schemes = append(out.Schemes, run)
	}
	if len(out.Schemes) == 0 {
		return nil, errors.New("experiment: no pricing schemes registered")
	}
	return out, nil
}

// TimeToTarget is one scheme's time to reach a target metric. Schemes that
// never reach it report OK=false.
type TimeToTarget struct {
	Scheme  string
	Elapsed time.Duration
	OK      bool
}

// TimesToLoss computes per-scheme time-to-target-loss (Table II).
func (c *Comparison) TimesToLoss(target float64) []TimeToTarget {
	out := make([]TimeToTarget, len(c.Schemes))
	for i, s := range c.Schemes {
		d, ok := sim.TimeToLoss(s.Points, target)
		out[i] = TimeToTarget{Scheme: s.Scheme, Elapsed: d, OK: ok}
	}
	return out
}

// TimesToAccuracy computes per-scheme time-to-target-accuracy (Table III).
func (c *Comparison) TimesToAccuracy(target float64) []TimeToTarget {
	out := make([]TimeToTarget, len(c.Schemes))
	for i, s := range c.Schemes {
		d, ok := sim.TimeToAccuracy(s.Points, target)
		out[i] = TimeToTarget{Scheme: s.Scheme, Elapsed: d, OK: ok}
	}
	return out
}

// Scheme returns the named scheme's run, or nil when the comparison does
// not include it.
func (c *Comparison) Scheme(name string) *SchemeRun {
	for _, s := range c.Schemes {
		if s.Scheme == name {
			return s
		}
	}
	return nil
}

// AdaptiveLossTarget picks a target loss every scheme eventually reaches:
// the worst scheme's final loss, nudged upward slightly. The paper uses
// fixed per-setup targets tuned to its hardware; an adaptive target keeps
// the comparison meaningful at any scale.
func (c *Comparison) AdaptiveLossTarget() float64 {
	worst := 0.0
	for _, s := range c.Schemes {
		if s.FinalLoss > worst {
			worst = s.FinalLoss
		}
	}
	return worst * 1.02
}

// AdaptiveAccuracyTarget picks an accuracy target every scheme reaches: the
// worst scheme's final accuracy. Using the worst final keeps the target
// reachable by all while still separating the schemes' arrival times.
func (c *Comparison) AdaptiveAccuracyTarget() float64 {
	worst := 1.0
	for _, s := range c.Schemes {
		if s.FinalAccuracy < worst {
			worst = s.FinalAccuracy
		}
	}
	return worst
}

// UtilityGains returns Table IV's two columns: total client utility of the
// proposed scheme minus uniform, and minus weighted.
func (c *Comparison) UtilityGains() (overUniform, overWeighted float64, err error) {
	opt := c.Scheme(game.SchemeNameProposed)
	uni := c.Scheme(game.SchemeNameUniform)
	wtd := c.Scheme(game.SchemeNameWeighted)
	if opt == nil || uni == nil || wtd == nil {
		return 0, 0, errors.New("experiment: comparison missing a built-in scheme")
	}
	return opt.TotalClientUtility - uni.TotalClientUtility,
		opt.TotalClientUtility - wtd.TotalClientUtility, nil
}

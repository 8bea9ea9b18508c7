package unbiasedfl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
)

// Session is the context-aware entry point to the library: one prepared
// experimental world (data, calibration, game, timing) plus the streaming
// and pricing configuration shared by every run launched from it. Build one
// with NewSession, then drive it with RunScheme, CompareSchemes, RunSweep,
// and the validation probes — every method takes a context.Context and
// returns promptly with ctx.Err() when cancelled.
//
// A Session is safe for sequential reuse: the environment is read-only
// during runs, so many experiments can be launched from the same Session
// one after another (or concurrently, if the configured Observer is
// concurrency-tolerant — each concurrent call gets its own serial event
// stream).
type Session struct {
	id          string
	env         *Environment
	observer    Observer
	sweepScheme string
	closed      atomic.Bool
}

// ErrSessionClosed is returned by every Session method after Close.
var ErrSessionClosed = errors.New("unbiasedfl: session closed")

// sessionCounter numbers sessions process-wide; IDs are unique within a
// process and stable in creation order, which is what registries (the
// serving daemon's session table, logs, tests) need.
var sessionCounter atomic.Uint64

func newSessionID() string {
	return fmt.Sprintf("session-%d", sessionCounter.Add(1))
}

// sessionConfig collects functional options before the environment is
// built.
type sessionConfig struct {
	opts        Options
	observer    Observer
	sweepScheme string
	run         RunConfig
	membership  *engine.MembershipPlan
}

// Option configures a Session at construction time.
type Option func(*sessionConfig)

// WithBaseOptions replaces the whole experiment Options struct (laptop
// defaults otherwise). Field-level options applied after it override its
// fields.
func WithBaseOptions(o Options) Option { return func(c *sessionConfig) { c.opts = o } }

// WithPaperScale starts from the paper's full scale (40 devices, R=1000,
// E=100, 20 runs) instead of the laptop defaults.
func WithPaperScale() Option { return func(c *sessionConfig) { c.opts = PaperOptions() } }

// WithClients sets the number of federated clients.
func WithClients(n int) Option { return func(c *sessionConfig) { c.opts.NumClients = n } }

// WithTotalSamples sets the total training-sample count (0 = the setup's
// default scaled by the fleet size).
func WithTotalSamples(n int) Option { return func(c *sessionConfig) { c.opts.TotalSamples = n } }

// WithFleetShards synthesizes the fleet from n distinct data shards shared
// across clients by pointer — the scale knob that makes 10^5–10^6-client
// fleets fit in memory. Clients sharing a shard keep distinct minibatch
// trajectories (each owns a private RNG cursor) and are priced individually.
// 0 (the default) materializes every client's shard.
func WithFleetShards(n int) Option { return func(c *sessionConfig) { c.opts.FleetShards = n } }

// WithRounds sets the training horizon R.
func WithRounds(n int) Option { return func(c *sessionConfig) { c.opts.Rounds = n } }

// WithLocalSteps sets E, the local SGD steps per round.
func WithLocalSteps(n int) Option { return func(c *sessionConfig) { c.opts.LocalSteps = n } }

// WithBatchSize sets the SGD mini-batch size.
func WithBatchSize(n int) Option { return func(c *sessionConfig) { c.opts.BatchSize = n } }

// WithEvalEvery sets the evaluation throttle (rounds between full
// loss/accuracy evaluations).
func WithEvalEvery(n int) Option { return func(c *sessionConfig) { c.opts.EvalEvery = n } }

// WithCalibrationRounds sets the calibration length for the G_n estimates.
func WithCalibrationRounds(n int) Option { return func(c *sessionConfig) { c.opts.Calibration = n } }

// WithRuns sets the number of independent training repetitions averaged per
// scheme.
func WithRuns(n int) Option { return func(c *sessionConfig) { c.opts.Runs = n } }

// WithSeed sets the root random seed.
func WithSeed(seed uint64) Option { return func(c *sessionConfig) { c.opts.Seed = seed } }

// WithObserver streams typed progress events (RoundStart, RoundEnd,
// SchemeSolved, SchemeDone, SweepPointDone) from every run launched by the
// session. Events arrive serially and in deterministic order; see Event.
func WithObserver(obs Observer) Option { return func(c *sessionConfig) { c.observer = obs } }

// WithSweepScheme selects the pricing scheme RunSweep retrains under, by
// registry name (default: the paper's proposed mechanism). Any scheme
// registered via RegisterScheme is valid.
func WithSweepScheme(name string) Option { return func(c *sessionConfig) { c.sweepScheme = name } }

// WithRunConfig sets how every training run launched from the session
// executes: backend, self-healing round deadline, group size, durability —
// the RunConfig RunScenarioWith takes. A session uses Checkpoint.Path as a
// prefix: every (scheme, run) leg commits to "<Path>-<scheme>-run<i>.ckpt",
// and a killed process rerun with Checkpoint.Resume finishes every leg from
// its last committed round. Execution only: results are bit-identical for
// any setting. Events is ignored — a session streams to its WithObserver.
func WithRunConfig(cfg RunConfig) Option { return func(c *sessionConfig) { c.run = cfg } }

// WithMembership makes every training run launched from the session elastic:
// clients join and leave the federation at the plan's round boundaries. At
// each epoch the market is re-priced over the active fleet (through a
// warm-started solver whose results are bit-identical to cold solves), the
// sampler's participation thresholds are updated, and aggregation weights are
// renormalized over the members present. Joins and permanent leaves happen
// only at round commits, so durable runs replay the epoch sequence
// byte-identically on resume. The plan is validated against the session's
// fleet size and horizon at construction time.
func WithMembership(plan *MembershipPlan) Option {
	return func(c *sessionConfig) { c.membership = plan }
}

// NewSession generates data, calibrates the convergence-bound constants,
// and assembles the CPL game for one of the paper's setups, returning a
// Session ready to launch experiments. The (training-heavy) calibration
// phase honors ctx cancellation.
func NewSession(ctx context.Context, id SetupID, options ...Option) (*Session, error) {
	cfg := sessionConfig{opts: DefaultOptions(), sweepScheme: SchemeNameProposed}
	for _, o := range options {
		if o != nil {
			o(&cfg)
		}
	}
	if _, err := game.SchemeByName(cfg.sweepScheme); err != nil {
		return nil, err
	}
	if cfg.membership != nil {
		if err := cfg.membership.Validate(cfg.opts.NumClients, cfg.opts.Rounds); err != nil {
			return nil, err
		}
	}
	env, err := experiment.BuildSetup(ctx, id, cfg.opts)
	if err != nil {
		return nil, err
	}
	env.Run = cfg.run
	env.Membership = cfg.membership
	return &Session{id: newSessionID(), env: env, observer: cfg.observer, sweepScheme: cfg.sweepScheme}, nil
}

// ID returns the session's process-unique identifier, assigned at
// construction — the handle multi-tenant hosts (the flserve daemon, logs)
// key their registries on.
func (s *Session) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Close retires the session: subsequent experiment launches return
// ErrSessionClosed. It is idempotent — closing twice (or concurrently, as a
// serving registry's cancel and cleanup paths may) is safe and returns nil
// both times. Runs already in flight are not interrupted; cancel their
// contexts for that.
func (s *Session) Close() error {
	if s != nil {
		s.closed.Store(true)
	}
	return nil
}

// guard validates the receiver before launching work.
func (s *Session) guard() error {
	if s == nil || s.env == nil {
		return errors.New("unbiasedfl: nil session")
	}
	if s.closed.Load() {
		return ErrSessionClosed
	}
	return nil
}

// Environment exposes the session's prepared world (game parameters,
// federated data, timing model) for direct inspection and custom
// pipelines.
func (s *Session) Environment() *Environment { return s.env }

// Options returns the experiment options the session was built with.
func (s *Session) Options() Options { return s.env.Opts }

// Equilibrium solves the paper's Stackelberg equilibrium (Theorem 2 prices
// and best responses) on the session's game. The result is memoized in the
// session environment's equilibrium cache: repeated calls (and any scheme
// run that prices the same game) solve once. Treat it as read-only.
func (s *Session) Equilibrium() (*Equilibrium, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.env.Equilibrium()
}

// RunScheme prices the market with the named registered scheme and trains
// the model under the induced participation levels, streaming progress to
// the session observer.
func (s *Session) RunScheme(ctx context.Context, scheme string) (*SchemeRun, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.RunScheme(ctx, s.env, scheme, s.observer)
}

// CompareSchemes runs every registered pricing scheme on the session's
// environment — the paper's Fig. 4 comparison, extended to any scheme
// added via RegisterScheme.
func (s *Session) CompareSchemes(ctx context.Context) (*Comparison, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.Compare(ctx, s.env, s.observer)
}

// RunSweep reruns the session's sweep scheme (with retraining) across
// values of one parameter — the paper's Figs. 5–7. Points run concurrently;
// SweepPointDone events still arrive in ascending index order.
func (s *Session) RunSweep(ctx context.Context, kind SweepKind, values []float64) ([]SweepPoint, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.SweepScheme(ctx, s.env, s.sweepScheme, kind, values, s.observer)
}

// EquilibriumSweep is RunSweep without retraining: equilibrium economics
// only (Table V).
func (s *Session) EquilibriumSweep(ctx context.Context, kind SweepKind, values []float64) ([]SweepPoint, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.EquilibriumSweep(ctx, s.env, kind, values, s.observer)
}

// BoundFidelity measures how faithfully the Theorem-1 surrogate ranks real
// training outcomes across random participation profiles (DESIGN.md X6).
func (s *Session) BoundFidelity(ctx context.Context, profiles int) (*FidelityResult, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.BoundFidelity(ctx, s.env, profiles, s.env.Opts.Seed+99)
}

// ConvergenceRate measures the empirical optimality gap across training
// horizons, validating Theorem 1's O(1/R) shape (DESIGN.md X9).
func (s *Session) ConvergenceRate(ctx context.Context, horizons []int) ([]GapPoint, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return experiment.ConvergenceRate(ctx, s.env, horizons, s.env.Opts.Seed)
}

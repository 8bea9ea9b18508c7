// Package unbiasedfl is the public façade of the reproduction of
// "Incentive Mechanism Design for Unbiased Federated Learning with
// Randomized Client Participation" (ICDCS 2023).
//
// The library implements the paper's Client Participation Level (CPL)
// Stackelberg game — a server that posts customized per-client prices under
// a budget and rational clients that respond with participation
// probabilities — together with every substrate it needs: an unbiased
// FedAvg-style training engine (Lemma 1), a Theorem-1 convergence-bound
// model, dataset generators, a hardware-prototype timing model, and a TCP
// socket prototype.
//
// # Sessions
//
// The primary entry point is the Session API: build one prepared world,
// then launch cancellable, observable experiments from it.
//
//	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
//	defer stop()
//
//	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1,
//		unbiasedfl.WithRuns(3),
//		unbiasedfl.WithSeed(7),
//		unbiasedfl.WithObserver(unbiasedfl.ObserverFunc(func(e unbiasedfl.Event) {
//			if r, ok := e.(unbiasedfl.RoundEnd); ok && r.Evaluated {
//				log.Printf("%s run %d round %d: loss %.4f", r.Scheme, r.Run, r.Round, r.Loss)
//			}
//		})))
//	...
//	eq, err := sess.Equilibrium()                            // the paper's mechanism
//	run, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
//	cmp, err := sess.CompareSchemes(ctx)                     // Fig. 4, over the registry
//
// Every long-running method takes a context.Context; cancelling it (Ctrl-C
// via signal.NotifyContext, a deadline, or an explicit cancel) stops
// training mid-round and sweeps mid-point, returning ctx.Err() promptly
// with no leaked goroutines.
//
// # Execution
//
// How a run executes — backend (in-process pool or real TCP sockets), group
// size, self-healing round deadline, checkpoint/resume — is one RunConfig,
// given to a session with WithRunConfig and to a scenario with
// RunScenarioWith. None of it can change a result.
//
// # Observers
//
// An Observer attached with WithObserver receives typed events — RoundStart
// and RoundEnd per training round (with loss/accuracy when evaluated),
// SchemeSolved when a pricing stage completes, SchemeDone per finished
// scheme, and SweepPointDone per sweep value. Events are delivered serially
// and in deterministic order, even where the work itself runs on a
// parallel worker pool.
//
// # The pricing registry
//
// The paper's three schemes (proposed, weighted, uniform) are built-ins of
// an open registry. Third-party mechanisms implement PricingScheme and join
// every comparison and sweep via RegisterScheme — no forking of the game
// internals:
//
//	type flat struct{}
//	func (flat) Name() string { return "flat" }
//	func (flat) Price(p *unbiasedfl.GameParams) (*unbiasedfl.Outcome, error) {
//		prices := make([]float64, p.N())
//		for i := range prices {
//			prices[i] = p.B / float64(p.N())
//		}
//		return p.OutcomeFor("flat", prices)
//	}
//	...
//	unbiasedfl.RegisterScheme(flat{})
//	cmp, err := sess.CompareSchemes(ctx) // now four schemes
//
// # Migration from the v0 API
//
// The original blocking entry points remain, now context-aware: NewSetup,
// RunScheme, CompareSchemes, RunSweep, EquilibriumSweep, BoundFidelity, and
// ConvergenceRate take a context.Context as their first argument. Schemes
// are addressed by registry name (SchemeNameProposed, ...).
//
// See examples/ for runnable programs and README.md for the mapping from
// the paper's tables and figures to the benchmark harness (bench_test.go
// and cmd/flbench).
package unbiasedfl

import (
	"context"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/sim"
)

// Game-layer types: the paper's primary contribution.
type (
	// GameParams holds every constant of the CPL game (Section III).
	GameParams = game.Params
	// Equilibrium is a solved Stackelberg equilibrium (Section V).
	Equilibrium = game.Equilibrium
	// Outcome is a priced market state under some scheme.
	Outcome = game.Outcome
	// Prior is the server's belief over private client parameters for the
	// Bayesian incomplete-information extension (DESIGN.md X1).
	Prior = game.Prior
	// BayesianOutcome is a posted-price design under incomplete information.
	BayesianOutcome = game.BayesianOutcome
	// Sensitivity holds the equilibrium's comparative statics (DESIGN.md X5).
	Sensitivity = game.Sensitivity
	// CostComponents prices device resources for the decoupled cost model
	// (DESIGN.md X2).
	CostComponents = game.CostComponents
	// DeviceProfile is a device's measured per-round resource usage.
	DeviceProfile = game.DeviceProfile
	// Solver is the reusable fleet-scale equilibrium engine: caller-owned
	// scratch (zero allocations per solve in steady state) and warm-started
	// multiplier brackets, bit-identical to cold SolveKKT solves.
	Solver = game.Solver
	// EquilibriumCache memoizes equilibrium solves and scheme pricings by
	// game fingerprint; every Session environment carries one.
	EquilibriumCache = game.Cache
	// BatchError reports which game of a SolveMany batch failed.
	BatchError = game.BatchError
)

// NewSolver returns a reusable equilibrium engine; see Solver.
func NewSolver() *Solver { return game.NewSolver() }

// NewEquilibriumCache returns an equilibrium memo-cache holding at most max
// solved games (max <= 0 selects the default capacity).
func NewEquilibriumCache(max int) *EquilibriumCache { return game.NewCache(max) }

// SolveMany batch-solves a slice of games across a fixed-order worker pool
// with per-worker scratch and warm starts (workers <= 0 means GOMAXPROCS).
// Results are bit-identical to a sequential SolveKKT loop for any worker
// count.
func SolveMany(games []*GameParams, workers int) ([]*Equilibrium, error) {
	return game.SolveMany(games, workers)
}

// Experiment-layer types: the paper's evaluation section.
type (
	// SetupID selects one of the paper's three experimental setups.
	SetupID = experiment.SetupID
	// Options scales an experiment (DefaultOptions or PaperOptions);
	// Sessions configure it through functional options (WithRuns, ...).
	Options = experiment.Options
	// Environment is a fully-prepared experimental world.
	Environment = experiment.Environment
	// SchemeRun is a pricing scheme's full outcome: market + training.
	SchemeRun = experiment.SchemeRun
	// Comparison bundles every registered scheme's run on one environment.
	Comparison = experiment.Comparison
	// SweepKind selects a swept parameter for the Figs. 5–7 studies.
	SweepKind = experiment.SweepKind
	// SweepPoint is one sweep value's result.
	SweepPoint = experiment.SweepPoint
	// FidelityResult is BoundFidelity's rank-agreement report.
	FidelityResult = experiment.FidelityResult
	// GapPoint is one ConvergenceRate horizon's optimality gap.
	GapPoint = experiment.GapPoint
	// Backend selects the execution substrate for training runs — the
	// unified federation engine runs the same round protocol on all of
	// them, bit-identically. It is RunConfig.Backend, for sessions
	// (WithRunConfig) and scenarios (RunScenarioWith) alike.
	Backend = experiment.Backend
)

// The paper's Table-I setups.
const (
	// Setup1 uses the Synthetic(1,1) dataset (B=200, c̄=50, v̄=4000).
	Setup1 = experiment.Setup1
	// Setup2 uses the MNIST-like dataset (B=40, c̄=20, v̄=30000).
	Setup2 = experiment.Setup2
	// Setup3 uses the EMNIST-like dataset (B=500, c̄=80, v̄=10000).
	Setup3 = experiment.Setup3
)

// Execution backends for the unified federation engine.
const (
	// BackendLocal runs local updates in-process through the engine's
	// zero-alloc worker pool (the default).
	BackendLocal = experiment.BackendLocal
	// BackendCluster runs each client as a real TCP socket node on
	// loopback.
	BackendCluster = experiment.BackendCluster
)

// ParseBackend maps a command-line backend name ("local", "cluster") to a
// Backend.
func ParseBackend(name string) (Backend, error) { return experiment.ParseBackend(name) }

// Swept parameters for the impact studies.
const (
	// SweepV varies the mean intrinsic value (Fig. 5).
	SweepV = experiment.SweepV
	// SweepC varies the mean local cost (Fig. 6).
	SweepC = experiment.SweepC
	// SweepB varies the server budget (Fig. 7).
	SweepB = experiment.SweepB
)

// Training-layer types re-exported for custom pipelines.
type (
	// TrainConfig is the FL loop configuration.
	TrainConfig = fl.Config
	// UnbiasedAggregator implements Lemma 1's aggregation rule.
	UnbiasedAggregator = engine.UnbiasedAggregator
	// TimedPoint is a wall-clock-stamped loss/accuracy sample.
	TimedPoint = sim.TimedPoint
)

// DefaultOptions returns the laptop-scale experiment configuration.
func DefaultOptions() Options { return experiment.DefaultOptions() }

// PaperOptions returns the paper's full scale (40 devices, R=1000, E=100).
func PaperOptions() Options { return experiment.PaperOptions() }

// NewSetup generates data, calibrates the convergence-bound constants, and
// assembles the CPL game for one of the paper's setups. Prefer NewSession,
// which wraps the Environment with observers and functional options.
func NewSetup(ctx context.Context, id SetupID, opts Options) (*Environment, error) {
	return experiment.BuildSetup(ctx, id, opts)
}

// RunScheme prices the market with the named registered scheme and trains
// the model under the induced participation levels. Optional observers
// stream per-round progress.
func RunScheme(ctx context.Context, env *Environment, scheme string, obs ...Observer) (*SchemeRun, error) {
	return experiment.RunScheme(ctx, env, scheme, obs...)
}

// CompareSchemes runs every registered pricing scheme on one environment —
// the paper's Fig. 4 comparison (proposed, weighted, uniform) plus any
// scheme added via RegisterScheme.
func CompareSchemes(ctx context.Context, env *Environment, obs ...Observer) (*Comparison, error) {
	return experiment.Compare(ctx, env, obs...)
}

// RunSweep reruns the proposed mechanism (with retraining) across values of
// one parameter — the paper's Figs. 5–7. Use Session.RunSweep with
// WithSweepScheme to sweep under a different registered scheme.
func RunSweep(ctx context.Context, env *Environment, kind SweepKind, values []float64, obs ...Observer) ([]SweepPoint, error) {
	return experiment.Sweep(ctx, env, kind, values, obs...)
}

// EquilibriumSweep is RunSweep without retraining: equilibrium economics
// only (Table V).
func EquilibriumSweep(ctx context.Context, env *Environment, kind SweepKind, values []float64, obs ...Observer) ([]SweepPoint, error) {
	return experiment.EquilibriumSweep(ctx, env, kind, values, obs...)
}

// BoundFidelity measures how faithfully the Theorem-1 surrogate ranks real
// training outcomes across random participation profiles (DESIGN.md X6).
func BoundFidelity(ctx context.Context, env *Environment, profiles int, seed uint64) (*FidelityResult, error) {
	return experiment.BoundFidelity(ctx, env, profiles, seed)
}

// ConvergenceRate measures the empirical optimality gap across training
// horizons, validating Theorem 1's O(1/R) shape (DESIGN.md X9).
func ConvergenceRate(ctx context.Context, env *Environment, horizons []int, seed uint64) ([]GapPoint, error) {
	return experiment.ConvergenceRate(ctx, env, horizons, seed)
}

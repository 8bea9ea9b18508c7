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
// Experiments go through the Session API: build one prepared world, then
// launch cancellable, observable experiments from it.
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
// # One entry point per capability
//
// Each capability has exactly one way in: a prepared world is NewSession;
// its equilibrium, scheme runs, the Fig. 4 comparison, the Figs. 5–7 sweeps
// and the Theorem-1 probes are Session methods; a scenario runs through
// RunScenarioWith; how either executes is one RunConfig. Schemes are
// addressed by registry name (SchemeNameProposed, ...).
//
// See examples/ for runnable programs and README.md for the mapping from
// the paper's tables and figures to the benchmark harness (bench_test.go
// and cmd/flbench).
package unbiasedfl

import (
	"unbiasedfl/internal/experiment"
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
	// Bayesian incomplete-information extension.
	Prior = game.Prior
	// BayesianOutcome is a posted-price design under incomplete information.
	BayesianOutcome = game.BayesianOutcome
	// Sensitivity holds the equilibrium's comparative statics.
	Sensitivity = game.Sensitivity
)

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

// TimedPoint is a wall-clock-stamped loss/accuracy sample (SchemeRun.Points).
type TimedPoint = sim.TimedPoint

// DefaultOptions returns the laptop-scale experiment configuration.
func DefaultOptions() Options { return experiment.DefaultOptions() }

// PaperOptions returns the paper's full scale (40 devices, R=1000, E=100).
func PaperOptions() Options { return experiment.PaperOptions() }

package unbiasedfl

import (
	"context"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/scenario"
)

// Scenario-engine façade: declarative experimental worlds with fault
// schedules, a deterministic driver, and the named library backing the
// golden-trace regression suite. See the internal/scenario package doc for
// the full model.
type (
	// Scenario declaratively describes one experimental world: fleet and
	// training scale, economics skew, data skew, and a per-client fault
	// schedule. Build one by hand or fetch a library entry via
	// ScenarioByName.
	Scenario = scenario.Scenario
	// ClientFault is one entry of a scenario's fault schedule.
	ClientFault = scenario.ClientFault
	// FaultKind discriminates the fault behaviours: exogenous (straggler,
	// dropout, flaky), membership (join, leave), and adversarial (misreport,
	// deviate, poison).
	FaultKind = scenario.FaultKind
	// Trace is the canonical, byte-reproducible record of a scenario run.
	// It is identical whichever execution backend produced it.
	Trace = scenario.Trace
	// TraceRound is one training round within a Trace.
	TraceRound = scenario.TraceRound
	// TraceEquilibrium is the priced market state a trace ran under.
	TraceEquilibrium = scenario.TraceEquilibrium
	// TraceEpoch is one membership epoch of an elastic trace: who joined or
	// left at the boundary and the re-priced sub-game's economics.
	TraceEpoch = scenario.TraceEpoch
	// TraceAdversary records a scenario's adversarial roster and the
	// equilibrium/accuracy degradation against truthful counterfactuals.
	TraceAdversary = scenario.TraceAdversary
	// GenOptions bounds the worlds GenerateScenario draws.
	GenOptions = scenario.GenOptions
	// Replay is the evidence ReplayScenarioAggregate collects for the
	// metamorphic unbiasedness check.
	Replay = scenario.Replay
	// ReplayConfig tunes the metamorphic unbiasedness replay.
	ReplayConfig = scenario.ReplayConfig
	// MembershipPlan schedules mid-run membership churn for a session: an
	// initial roster plus join/leave events at round boundaries. Pass it to
	// WithMembership. Scenario runs express churn as FaultJoin/FaultLeave
	// entries instead.
	MembershipPlan = engine.MembershipPlan
	// MembershipEvent is one epoch boundary of a MembershipPlan.
	MembershipEvent = engine.MembershipEvent
	// RunConfig is the one execution configuration: backend, cluster knobs,
	// group size, durability and event stream, for a scenario
	// (RunScenarioWith) and a session (WithRunConfig) alike. None of it can
	// change a result.
	RunConfig = experiment.RunConfig
	// ClusterConfig tunes the multi-node loopback harness, including the
	// self-healing RoundTimeout.
	ClusterConfig = experiment.ClusterConfig
	// CheckpointConfig makes a run durable: commit a checkpoint at every
	// round boundary and resume a killed run to a byte-identical result. See
	// internal/checkpoint for the invariant.
	CheckpointConfig = experiment.CheckpointConfig
)

// The fault kinds a schedule can inject.
const (
	// FaultStraggler multiplies a client's latency by its DelayFactor.
	FaultStraggler = scenario.FaultStraggler
	// FaultDropout removes a client permanently from round Round onward.
	FaultDropout = scenario.FaultDropout
	// FaultFlaky makes a client reachable only with probability
	// Availability each round.
	FaultFlaky = scenario.FaultFlaky
	// FaultJoin admits a client at the Round epoch boundary; it is absent
	// from the initial roster.
	FaultJoin = scenario.FaultJoin
	// FaultLeave retires a client permanently and gracefully at the Round
	// epoch boundary.
	FaultLeave = scenario.FaultLeave
	// FaultMisreport makes a client report Factor× its true cost at Stage-I,
	// so the market is priced against a lie.
	FaultMisreport = scenario.FaultMisreport
	// FaultDeviate makes a client participate with Factor·q instead of its
	// priced q at Stage-II.
	FaultDeviate = scenario.FaultDeviate
	// FaultPoison scales a client's model delta by Factor from round Round
	// onward.
	FaultPoison = scenario.FaultPoison
)

// RunScenario compiles and executes the scenario through the full data →
// calibration → game → pricing → training pipeline on the in-process
// backend and returns its canonical trace. Replays of the same scenario are
// bit-identical for any GOMAXPROCS; cancelling ctx aborts promptly with
// ctx.Err().
func RunScenario(ctx context.Context, sc Scenario) (*Trace, error) {
	return scenario.Run(ctx, sc)
}

// RunScenarioWith is the single scenario entry point behind RunScenario and
// RunScenarioCluster: the same orchestrated run, pointed at the execution
// backend the config selects. The trace is byte-identical across backends.
func RunScenarioWith(ctx context.Context, sc Scenario, cfg RunConfig) (*Trace, error) {
	return scenario.RunWith(ctx, sc, cfg)
}

// RunScenarioCluster executes the scenario as a real multi-node federation —
// a TCP coordinator plus one socket node per device on loopback — and
// returns the same canonical *Trace as RunScenario, byte-identical to the
// in-process result. (Before the unified engine it returned a separate
// ClusterResult shape; the trace now is the cross-backend contract.)
func RunScenarioCluster(ctx context.Context, sc Scenario, cfg ClusterConfig) (*Trace, error) {
	return scenario.RunCluster(ctx, sc, cfg)
}

// ScenarioNames lists the named scenario library in canonical order.
func ScenarioNames() []string { return scenario.Names() }

// Scenarios returns a fresh copy of every library scenario.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioByName fetches a library scenario, e.g. "baseline" or
// "straggler-heavy".
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// GenerateScenario derives a valid scenario from an arbitrary byte seed with
// the default bounds — the property-based generation entry point. The same
// seed always yields the same world; see GenerateScenarioWith for bounds.
func GenerateScenario(seed []byte) Scenario { return scenario.Generate(seed) }

// GenerateScenarioWith is GenerateScenario under explicit bounds.
func GenerateScenarioWith(seed []byte, opts GenOptions) Scenario {
	return scenario.GenerateWith(seed, opts)
}

// ReplayScenarioAggregate replays one round's participation sampling many
// times on fresh coin streams and returns the evidence for the metamorphic
// unbiasedness check: sampled aggregate projections next to Lemma 1's
// analytic expectation.
func ReplayScenarioAggregate(ctx context.Context, sc Scenario, cfg ReplayConfig) (*Replay, error) {
	return scenario.ReplayAggregate(ctx, sc, cfg)
}

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

// RunScenarioWith is the one scenario entry point: it compiles the scenario
// and executes it through the full data → calibration → game → pricing →
// training pipeline on the execution backend cfg selects (the zero
// RunConfig is the in-process backend; BackendCluster is a TCP coordinator
// plus one socket node per device on loopback), returning its canonical
// trace. The trace is byte-identical across backends, group sizes, an
// interrupted and resumed run, and any GOMAXPROCS; cancelling ctx aborts
// promptly with ctx.Err().
func RunScenarioWith(ctx context.Context, sc Scenario, cfg RunConfig) (*Trace, error) {
	return scenario.RunWith(ctx, sc, cfg)
}

// Scenarios returns a fresh copy of every library scenario, in canonical
// order.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioByName fetches a library scenario, e.g. "baseline" or
// "straggler-heavy".
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// GenerateScenario derives a valid scenario from an arbitrary byte seed with
// the default bounds — the property-based generation entry point. The same
// seed always yields the same world.
func GenerateScenario(seed []byte) Scenario { return scenario.Generate(seed) }

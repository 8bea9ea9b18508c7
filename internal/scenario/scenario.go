// Package scenario turns the reproduction into a workload generator: a
// declarative Scenario describes a whole experimental world — fleet size,
// heterogeneous cost/valuation distributions, non-IID data skew, and a
// per-client fault schedule (stragglers, mid-run dropouts, flaky
// availability) — and a deterministic seeded driver compiles it into one run
// of the full data → calibration → game → pricing → engine pipeline, emitting
// a canonical Trace.
//
// Two execution substrates share every Scenario, behind one entry point:
// RunWith compiles the scenario into its priced world and one training leg
// and hands it to experiment.Launch — the launch path every run in the
// repository takes — under an experiment.RunConfig (aliased here), which
// selects the backend:
//
//   - the zero RunConfig executes in-process on engine.LocalBackend with the
//     sim timing model, producing a bit-reproducible Trace for the
//     golden-trace regression suite (testdata/golden). Replays are
//     bit-identical for any GOMAXPROCS because every layer underneath
//     (kernels, worker pool, equilibrium engine) is order-fixed by
//     construction.
//   - BackendCluster executes on engine.ClusterBackend — a TCP coordinator
//     plus one engine.ServeNode socket node per device over loopback — and
//     stalls stragglers for real wall-clock time at the socket layer; the
//     Trace is byte-identical to the in-process one. It is the standing
//     multi-node integration harness.
//
// The named library (Names, ByName) covers the regimes the paper's claims
// must survive: clean baselines, straggler-heavy fleets, churn, adversarial
// dropouts, cost skew, budget scarcity, larger fleets, and a mixed storm.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
)

// FaultKind discriminates the per-client fault behaviours a schedule can
// inject.
type FaultKind int

const (
	// FaultStraggler multiplies the client's compute and communication
	// times by DelayFactor (in-process: the sim timing model; cluster: a
	// real pre-reply delay).
	FaultStraggler FaultKind = iota + 1
	// FaultDropout removes the client permanently from round Round onward —
	// in-process it silently stops participating; in the cluster it severs
	// its TCP connection mid-round.
	FaultDropout
	// FaultFlaky makes the client exogenously available only with
	// probability Availability each round, independent of its strategic
	// participation coin.
	FaultFlaky
	// FaultJoin admits the client at the Round epoch boundary: it is absent
	// from the initial roster and becomes a member when round Round begins.
	// Unlike the exogenous faults, membership changes are visible to the
	// server, which re-prices the sub-game over the active fleet at every
	// epoch (see engine.MembershipPlan).
	FaultJoin
	// FaultLeave retires the client permanently and gracefully at the Round
	// epoch boundary — an announced, acknowledged departure, as opposed to
	// FaultDropout's silent crash. The server re-prices without it.
	FaultLeave
	// FaultMisreport makes the client strategic at Stage-I: it reports
	// Factor× its true marginal cost to the pricing mechanism, so the whole
	// market is priced against a lie. Utilities and the trace's adversary
	// section are still scored at true costs.
	FaultMisreport
	// FaultDeviate makes the client strategic at Stage-II: it participates
	// with probability Factor·q_n instead of the priced q_n, while the
	// server keeps aggregating under its priced belief.
	FaultDeviate
	// FaultPoison makes the client malicious during training: from round
	// Round onward its model delta is scaled by Factor (negative = sign
	// flip) before aggregation.
	FaultPoison
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultStraggler:
		return "straggler"
	case FaultDropout:
		return "dropout"
	case FaultFlaky:
		return "flaky"
	case FaultJoin:
		return "join"
	case FaultLeave:
		return "leave"
	case FaultMisreport:
		return "misreport"
	case FaultDeviate:
		return "deviate"
	case FaultPoison:
		return "poison"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ClientFault is one entry of a scenario's fault schedule.
type ClientFault struct {
	// Client is the index of the afflicted device.
	Client int
	Kind   FaultKind
	// Round is the dropout round (FaultDropout), the epoch boundary at
	// which the membership change takes effect (FaultJoin, FaultLeave), or
	// the first poisoned round (FaultPoison).
	Round int
	// DelayFactor multiplies the client's latency (FaultStraggler, > 1 for
	// a straggler).
	DelayFactor float64
	// Availability is the per-round probability the client is reachable at
	// all (FaultFlaky, in (0,1)).
	Availability float64
	// Factor parameterizes the adversarial kinds: the cost-misreport
	// multiplier (FaultMisreport, > 0), the willingness multiplier
	// (FaultDeviate, >= 0), or the delta scale (FaultPoison, any finite
	// value — negative flips the update).
	Factor float64
}

func (f ClientFault) validate(numClients, rounds int) error {
	if f.Client < 0 || f.Client >= numClients {
		return fmt.Errorf("scenario: fault client %d out of range [0,%d)", f.Client, numClients)
	}
	switch f.Kind {
	case FaultStraggler:
		if !(f.DelayFactor > 0) || math.IsInf(f.DelayFactor, 0) {
			return fmt.Errorf("scenario: straggler client %d needs a positive finite delay factor", f.Client)
		}
	case FaultDropout:
		if f.Round < 0 {
			return fmt.Errorf("scenario: dropout client %d needs a non-negative round", f.Client)
		}
		if f.Round >= rounds {
			return fmt.Errorf("scenario: dropout client %d at round %d is past the %d-round horizon", f.Client, f.Round, rounds)
		}
	case FaultFlaky:
		if !(f.Availability > 0) || f.Availability >= 1 {
			return fmt.Errorf("scenario: flaky client %d needs availability in (0,1)", f.Client)
		}
	case FaultJoin, FaultLeave:
		if f.Round < 1 {
			return fmt.Errorf("scenario: %v for client %d needs a round >= 1 (membership only changes at interior epoch boundaries)", f.Kind, f.Client)
		}
	case FaultMisreport:
		if !(f.Factor > 0) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("scenario: misreporting client %d needs a positive finite cost factor", f.Client)
		}
	case FaultDeviate:
		if !(f.Factor >= 0) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("scenario: deviating client %d needs a finite non-negative willingness factor", f.Client)
		}
	case FaultPoison:
		if math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("scenario: poisoning client %d needs a finite delta factor", f.Client)
		}
		if f.Round < 0 || f.Round >= rounds {
			return fmt.Errorf("scenario: poisoning client %d needs a start round in [0,%d)", f.Client, rounds)
		}
	default:
		return fmt.Errorf("scenario: client %d has unknown fault kind %d", f.Client, int(f.Kind))
	}
	return nil
}

// Scenario declaratively describes one experimental world. The zero value is
// invalid; start from a library entry (ByName) or fill the fields and let
// Validate check them. All randomness derives from Seed, so a Scenario is a
// complete, replayable description of its run.
type Scenario struct {
	// Name identifies the scenario in traces and golden files.
	Name string
	// Description says what regime the scenario exercises.
	Description string

	// Setup selects the paper setup whose data/economics shape the world.
	Setup experiment.SetupID
	// Scheme is the registry name of the pricing scheme driving
	// participation ("" = the paper's proposed mechanism).
	Scheme string

	// Fleet and training scale.
	Clients      int
	TotalSamples int // 0 = setup default scaled by fleet size
	// FleetShards, when positive, synthesizes the Clients-strong fleet from
	// this many distinct data shards shared by pointer (each client keeps a
	// private RNG cursor, so trajectories differ): the knob that scales a
	// scenario to 10^5–10^6 clients without materializing per-client
	// training sets. 0 materializes every client's shard individually.
	FleetShards int
	Rounds      int
	LocalSteps  int
	BatchSize   int
	EvalEvery   int
	Calibration int
	Seed        uint64

	// CostScale multiplies every client's cost parameter c_n (0 = 1).
	CostScale float64
	// CostSpread adds deterministic multiplicative skew on top: client n's
	// cost is scaled by exp(CostSpread·(2n/(N−1) − 1)), so the fleet spans
	// a e^(2·CostSpread) cost ratio end to end (0 = homogeneous).
	CostSpread float64
	// ValueScale multiplies every client's intrinsic valuation v_n (0 = 1).
	ValueScale float64
	// BudgetScale multiplies the server budget B (0 = 1); < 1 models a
	// budget crunch.
	BudgetScale float64
	// MaxClientClasses caps labels per client in the image-like setups,
	// sharpening non-IID skew (0 = setup default).
	MaxClientClasses int

	// Faults is the per-client fault schedule.
	Faults []ClientFault
}

// withDefaults fills zero-valued scale knobs with their neutral defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Scheme == "" {
		s.Scheme = game.SchemeNameProposed
	}
	if s.CostScale == 0 {
		s.CostScale = 1
	}
	if s.ValueScale == 0 {
		s.ValueScale = 1
	}
	if s.BudgetScale == 0 {
		s.BudgetScale = 1
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 4
	}
	if s.Calibration == 0 {
		s.Calibration = 2
	}
	return s
}

// Validate checks the scenario after defaulting. It resolves the pricing
// scheme through the registry, so a third-party scheme registered via
// game.RegisterScheme is as runnable as the built-ins.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	switch {
	case s.Name == "":
		return errors.New("scenario: empty name")
	case s.Clients <= 1:
		return errors.New("scenario: need at least two clients")
	case s.FleetShards < 0:
		return errors.New("scenario: negative fleet shard count")
	case s.FleetShards == 1:
		return errors.New("scenario: need at least two fleet shards")
	case s.FleetShards > s.Clients:
		return errors.New("scenario: more fleet shards than clients")
	case s.Rounds <= 0 || s.LocalSteps <= 0 || s.BatchSize <= 0:
		return errors.New("scenario: invalid training scale")
	case s.CostScale <= 0 || s.ValueScale < 0 || s.BudgetScale <= 0:
		return errors.New("scenario: non-positive economics scale")
	case s.CostSpread < 0:
		return errors.New("scenario: negative cost spread")
	case math.IsNaN(s.CostScale) || math.IsInf(s.CostScale, 0) ||
		math.IsNaN(s.CostSpread) || math.IsInf(s.CostSpread, 0) ||
		math.IsNaN(s.ValueScale) || math.IsInf(s.ValueScale, 0) ||
		math.IsNaN(s.BudgetScale) || math.IsInf(s.BudgetScale, 0):
		return errors.New("scenario: non-finite economics scale")
	}
	if _, err := game.SchemeByName(s.Scheme); err != nil {
		return err
	}
	type faultKey struct {
		client int
		kind   FaultKind
	}
	seen := make(map[faultKey]bool, len(s.Faults))
	for _, f := range s.Faults {
		if err := f.validate(s.Clients, s.Rounds); err != nil {
			return err
		}
		key := faultKey{f.Client, f.Kind}
		if seen[key] {
			return fmt.Errorf("scenario: client %d has duplicate %v faults", f.Client, f.Kind)
		}
		seen[key] = true
	}
	// Membership churn gets the engine's full coherence check (rounds in
	// range, joins before leaves, fleet never empty) at declaration time
	// rather than at run time.
	if plan := compileMembership(s.Clients, s.Faults); plan != nil {
		if err := plan.Validate(s.Clients, s.Rounds); err != nil {
			return err
		}
	}
	return nil
}

// options compiles the scenario's scale knobs into experiment Options.
func (s Scenario) options() experiment.Options {
	return experiment.Options{
		NumClients:       s.Clients,
		TotalSamples:     s.TotalSamples,
		FleetShards:      s.FleetShards,
		Rounds:           s.Rounds,
		LocalSteps:       s.LocalSteps,
		BatchSize:        s.BatchSize,
		EvalEvery:        s.EvalEvery,
		Calibration:      s.Calibration,
		Seed:             s.Seed,
		Runs:             1,
		MaxClientClasses: s.MaxClientClasses,
	}
}

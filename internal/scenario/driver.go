package scenario

import (
	"context"
	"errors"
	"fmt"

	"unbiasedfl/internal/adversary"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// Backend selects the execution substrate a scenario runs on — the same
// seam every experiment run uses. Every backend executes the same
// orchestrated round protocol (engine.Orchestrator), so the produced Trace
// is byte-identical across backends — the property the backend-equivalence
// matrix test pins for the whole golden library.
type Backend = experiment.Backend

// The backends a scenario can run on.
const (
	BackendLocal   = experiment.BackendLocal
	BackendCluster = experiment.BackendCluster
)

// RunConfig, ClusterConfig and CheckpointConfig are the one run
// configuration every launcher fills (see experiment.RunConfig): a scenario
// adds nothing to it.
type (
	RunConfig        = experiment.RunConfig
	ClusterConfig    = experiment.ClusterConfig
	CheckpointConfig = experiment.CheckpointConfig
)

// Run compiles the scenario and executes it in-process through the full
// pipeline — data generation, bound calibration, game assembly, pricing via
// the scheme registry, fault-composed participation sampling, the engine's
// local backend, and the sim timing model — returning the canonical Trace.
// Everything derives from Scenario.Seed: two Runs of the same scenario are
// bit-identical, for any GOMAXPROCS. Cancelling ctx aborts promptly with
// ctx.Err().
func Run(ctx context.Context, sc Scenario) (*Trace, error) {
	return RunWith(ctx, sc, RunConfig{})
}

// RunCluster executes the scenario as a real multi-node federation — the
// engine's cluster backend boots a TCP coordinator plus one socket node per
// device on loopback — and returns the same canonical Trace as Run,
// byte-identical to the in-process result. Participation (including
// dropouts and flaky availability) is decided by the orchestrator's
// fault-composed sampler exactly as in-process; straggler factors
// additionally stall the affected nodes for real wall-clock time at the
// socket layer. All goroutines and sockets are torn down before RunCluster
// returns.
func RunCluster(ctx context.Context, sc Scenario, cfg ClusterConfig) (*Trace, error) {
	return RunWith(ctx, sc, RunConfig{Backend: BackendCluster, Cluster: cfg})
}

// RunWith is the single scenario entry point behind Run and RunCluster: it
// compiles the scenario into its priced world and one training leg, hands
// the leg to experiment.Launch under cfg, and folds the run into the
// canonical Trace. The trace is byte-identical for every backend.
func RunWith(ctx context.Context, sc Scenario, cfg RunConfig) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc = sc.withDefaults()
	w, err := prepare(ctx, sc)
	if err != nil {
		return nil, err
	}
	for n, factor := range w.sch.Delay {
		if factor == 1 {
			continue
		}
		if err := w.env.Timing.Scale(n, factor); err != nil {
			return nil, err
		}
	}
	if cfg.Events != nil {
		cfg.Events.OnEvent(experiment.SchemeSolved{Scheme: sc.Scheme, Outcome: w.outcome})
	}
	// The repricer works from the market the server believes in — the
	// reported params when someone misreports — so a Stage-I lie keeps
	// distorting every epoch's sub-game, exactly as it would in the field.
	leg, err := compileLeg(sc, sc.Faults, w.q, w.pricing)
	if err != nil {
		return nil, err
	}
	// Every membership epoch (the initial roster and epochs replayed on
	// resume included) appends a ledger row. The headline Equilibrium stays
	// the full-fleet pricing; the ledger carries the per-epoch economics.
	var ledger []TraceEpoch
	leg.OnEpoch = func(r engine.Roster, ep game.EpochPricing) {
		ledger = append(ledger, TraceEpoch{
			Epoch:     r.Epoch,
			Round:     r.Round,
			Joined:    append([]int(nil), r.Joined...),
			Left:      append([]int(nil), r.Left...),
			Active:    r.NumActive(),
			Spent:     ep.Spent,
			ServerObj: ep.ServerObj,
		})
	}
	res, err := experiment.Launch(ctx, w.env, leg, cfg)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	trace, err := assembleTrace(sc, w.env, w.outcome, w.q, w.sch, res, ledger)
	if err != nil {
		return nil, err
	}
	if w.adv.present() {
		if trace.Adversary, err = adversaryImpact(ctx, sc, w, trace); err != nil {
			return nil, fmt.Errorf("scenario %q adversary metrics: %w", sc.Name, err)
		}
	}
	return trace, nil
}

// compileLeg compiles one training leg of the scenario: the fault list
// decides the schedule, the membership plan and the tamper hook, q is the
// priced participation, and pricing the game membership epochs re-price
// from. The realized run and its honest twin both come from here, so they
// differ by exactly these three arguments and never by stream displacement:
// one root stream feeds the sampler's two coin streams and the executor
// seed, so a run is a pure function of the scenario seed on any backend.
func compileLeg(sc Scenario, faults []ClientFault, q []float64, pricing *game.Params) (experiment.Leg, error) {
	sch := compileSchedule(sc.Clients, faults)
	root := stats.NewRNG(sc.Seed ^ 0x9E3779B97F4A7C15)
	sampler := engine.NewFaultSampler(q, sch, root.Split(), root.Split())
	// Gradient poisoning rides the orchestrator's tamper seam, so it is
	// byte-identical on every execution backend and replays exactly on
	// resume.
	tamper, err := adversary.Tamper(sc.Clients, compileAdversary(faults).poisons)
	if err != nil {
		return experiment.Leg{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return experiment.Leg{
		Scheme:          sc.Scheme,
		Seed:            root.Uint64(),
		Sampler:         sampler,
		Tamper:          tamper,
		Membership:      compileMembership(sc.Clients, faults),
		Pricing:         pricing,
		Q:               append([]float64(nil), q...),
		CheckpointLabel: sc.Name,
		CheckpointSeed:  sc.Seed,
		Delay:           sch.Delay,
	}, nil
}

// adversaryImpact scores the realized (adversarial) run against its truthful
// counterfactuals: the market priced on true costs, and an honest training
// twin replayed with the same seed, exogenous faults, and membership churn
// but none of the adversarial behaviours.
func adversaryImpact(ctx context.Context, sc Scenario, w *world, realized *Trace) (*TraceAdversary, error) {
	truthQ := w.env.Params.ClampQ(w.truthful.Q)
	truthUtil, err := w.env.Params.TotalClientUtility(w.truthful.P, truthQ, nil)
	if err != nil {
		return nil, err
	}
	honestLoss, honestAcc, err := runHonestTwin(ctx, sc, w, truthQ)
	if err != nil {
		return nil, err
	}
	adv := &TraceAdversary{
		TruthfulSpent:       w.truthful.Spent,
		TruthfulServerObj:   w.truthful.ServerObj,
		ServerObjInflation:  w.outcome.ServerObj - w.truthful.ServerObj,
		UtilityShift:        realized.TotalClientUtility - truthUtil,
		HonestFinalLoss:     honestLoss,
		HonestFinalAccuracy: honestAcc,
		LossInflation:       realized.FinalLoss - honestLoss,
		AccuracyDrop:        honestAcc - realized.FinalAccuracy,
	}
	adv.Misreporting, adv.Deviating, adv.Poisoning = w.adv.clients()
	return adv, nil
}

// runHonestTwin replays the scenario with every adversarial behaviour
// stripped — truthful pricing, obedient participation, clean updates — on the
// already-built environment, in-process and without the realized run's
// checkpoint or event stream.
func runHonestTwin(ctx context.Context, sc Scenario, w *world, truthQ []float64) (loss, acc float64, err error) {
	leg, err := compileLeg(sc, honestFaults(sc.Faults), truthQ, w.env.Params)
	if err != nil {
		return 0, 0, err
	}
	res, err := experiment.Launch(ctx, w.env, leg, RunConfig{})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, 0, ctxErr
		}
		return 0, 0, fmt.Errorf("honest twin: %w", err)
	}
	return res.FinalLoss, res.FinalAcc, nil
}

// world is a scenario compiled to its priced market: the built environment
// (with economics skew applied), the pricing the server actually computed —
// on reported costs when anyone misreports — alongside the truthful
// counterfactual, the clamped participation vector, the compiled fault
// schedule, and the adversarial roster. Every execution backend goes through
// this single path, so all backends price the same market for the same
// Scenario.
type world struct {
	env *experiment.Environment
	// outcome is the pricing the server posted; truthful is the pricing a
	// fully honest Stage-I would have produced. They are the same object when
	// nobody misreports.
	outcome  *game.Outcome
	truthful *game.Outcome
	// pricing is the game the server believes in — reported params under
	// misreporting, env.Params otherwise. Epoch re-pricing works from it;
	// utility scoring always works from env.Params (true costs).
	pricing *game.Params
	q       []float64
	sch     engine.FaultSchedule
	adv     adversarySpec
}

// prepare compiles a defaulted scenario into its world.
func prepare(ctx context.Context, sc Scenario) (*world, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ps, err := game.SchemeByName(sc.Scheme)
	if err != nil {
		return nil, err
	}
	env, err := experiment.BuildSetup(ctx, sc.Setup, sc.options())
	if err != nil {
		return nil, err
	}
	if err := applyEconomics(env.Params, sc); err != nil {
		return nil, err
	}
	adv := compileAdversary(sc.Faults)
	pricing, err := adversary.ReportedParams(env.Params, adv.misreports)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	truthful, err := priceThrough(env, ps, env.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario %q pricing: %w", sc.Name, err)
	}
	outcome := truthful
	if pricing != env.Params {
		if outcome, err = priceThrough(env, ps, pricing); err != nil {
			return nil, fmt.Errorf("scenario %q misreported pricing: %w", sc.Name, err)
		}
	}
	return &world{
		env:      env,
		outcome:  outcome,
		truthful: truthful,
		pricing:  pricing,
		q:        env.Params.ClampQ(outcome.Q),
		sch:      compileSchedule(sc.Clients, sc.Faults),
		adv:      adv,
	}, nil
}

// priceThrough resolves the outcome through the environment's memo-cache
// when one is attached.
func priceThrough(env *experiment.Environment, ps game.PricingScheme, params *game.Params) (*game.Outcome, error) {
	if env.Cache != nil {
		return env.Cache.Price(ps, params)
	}
	return ps.Price(params)
}

// applyEconomics rescales the generated cost/valuation draws and the budget
// per the scenario's skew knobs, then re-validates the game.
func applyEconomics(p *game.Params, sc Scenario) error {
	n := p.N()
	if n != sc.Clients {
		return errors.New("scenario: game size does not match fleet size")
	}
	for i := 0; i < n; i++ {
		ramp := 1.0
		if sc.CostSpread > 0 && n > 1 {
			ramp = tensor.Exp(sc.CostSpread * (2*float64(i)/float64(n-1) - 1))
		}
		p.C[i] *= sc.CostScale * ramp
		p.V[i] *= sc.ValueScale
	}
	p.B *= sc.BudgetScale
	return p.Validate()
}

// assembleTrace folds the run into the canonical trace shape.
func assembleTrace(
	sc Scenario, env *experiment.Environment, outcome *game.Outcome,
	q []float64, sch engine.FaultSchedule, res *engine.RunResult,
	ledger []TraceEpoch,
) (*Trace, error) {
	counts := make([]int, sc.Clients)
	roundTrace := make([]TraceRound, 0, len(res.History))
	var clock float64
	for _, m := range res.History {
		d, err := env.Timing.RoundDuration(m.ParticipantIDs, sc.LocalSteps)
		if err != nil {
			return nil, err
		}
		clock += d.Seconds()
		for _, n := range m.ParticipantIDs {
			counts[n]++
		}
		roundTrace = append(roundTrace, TraceRound{
			Round:        m.Round,
			Participants: m.Participants,
			TimeS:        clock,
			Evaluated:    m.Evaluated,
			Loss:         m.GlobalLoss,
			Accuracy:     m.TestAccuracy,
		})
	}
	empirical := make([]float64, sc.Clients)
	for n, c := range counts {
		empirical[n] = float64(c) / float64(sc.Rounds)
	}
	utility, err := env.Params.TotalClientUtility(outcome.P, q, nil)
	if err != nil {
		return nil, err
	}
	negative := 0
	for _, p := range outcome.P {
		if p < 0 {
			negative++
		}
	}
	return &Trace{
		Scenario:    sc.Name,
		Description: sc.Description,
		Setup:       env.ID.String(),
		Scheme:      sc.Scheme,
		Clients:     sc.Clients,
		Rounds:      sc.Rounds,
		Seed:        sc.Seed,
		Equilibrium: TraceEquilibrium{
			P:         append([]float64(nil), outcome.P...),
			Q:         q,
			Spent:     outcome.Spent,
			ServerObj: outcome.ServerObj,
		},
		Participation:      counts,
		EmpiricalQ:         empirical,
		DroppedAt:          append([]int(nil), sch.DropRound...),
		Membership:         ledger,
		RoundTrace:         roundTrace,
		FinalLoss:          res.FinalLoss,
		FinalAccuracy:      res.FinalAcc,
		TotalClientUtility: utility,
		NegativePayments:   negative,
		SimTimeS:           clock,
	}, nil
}

package experiment

import (
	"context"
	"fmt"
	"time"

	"unbiasedfl/internal/checkpoint"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
)

// RunConfig says how a run executes, never what it computes: the result is
// bit-identical for every setting (pinned by the backend-equivalence matrix,
// the hierarchical ≡ flat suite and the resume sweeps in internal/scenario).
// It is the one configuration surface above the engine — Environment.Run,
// the Session option WithRunConfig, scenario.RunWith, cmd/flsim, cmd/flnode
// and flserve all fill it and hand it to Launch.
type RunConfig struct {
	Backend    Backend
	Cluster    ClusterConfig
	Checkpoint CheckpointConfig
	// GroupSize, when above one, aggregates hierarchically: clients fold
	// their weighted deltas in groups of this size and only group partials
	// reach the coordinator; on the cluster backend each group also shares
	// one socket node. See engine.Spec.GroupSize.
	GroupSize int
	// Events, when non-nil, receives RoundStart/RoundEnd for every training
	// round, serially on the orchestration goroutine and in an order that is
	// deterministic for a fixed run (scenario.RunWith emits SchemeSolved
	// first; Run is always 0 there — a scenario is a single repetition).
	// This is the seam the serving daemon's SSE streams tap. Runs launched
	// from an Environment (RunScheme, Compare) fill it per leg from their
	// observer argument — a Session's WithObserver — whatever is set here.
	Events Observer
}

// ClusterConfig tunes the multi-node TCP backend.
type ClusterConfig struct {
	// Addr is the coordinator's listen address. Empty, the backend listens
	// on an ephemeral loopback port and spawns the fleet's socket nodes
	// itself; set (cmd/flnode's server role), it listens there for external
	// devices and spawns nothing. See engine.ClusterOptions.Addr.
	Addr string
	// Timeout bounds every coordinator-side socket operation (default 30s,
	// applied by the engine's cluster backend).
	Timeout time.Duration
	// StragglerUnit is the real wall-clock stall injected per unit of a
	// straggler's delay factor each round (default 1ms — enough to reorder
	// replies without slowing the suite). It shifts wall time and reply
	// order only.
	StragglerUnit time.Duration
	// RoundTimeout, when positive, runs every round under this deadline with
	// self-healing: a node that crashes, disconnects, or misses it forfeits
	// the round — which the unbiased estimator already prices — and is
	// revived in the background. Zero is strict: any node failure fails the
	// run. See engine.ClusterOptions.RoundTimeout.
	RoundTimeout time.Duration
}

// CheckpointConfig makes a run durable: with a non-empty Path the run
// commits a checkpoint at every round boundary, and a resumed run finishes
// byte-identical to the uninterrupted one (the invariant internal/checkpoint
// states and the resume sweep tests pin) — on either backend, and even
// across backends.
type CheckpointConfig struct {
	// Path is the snapshot file location ("" disables checkpointing); the
	// trace WAL lives beside it at Path+".wal". Runs launched from an
	// Environment use it as a prefix: every (scheme, run) leg gets its own
	// "<Path>-<scheme>-run<i>.ckpt".
	Path string
	// Resume continues from an existing checkpoint at Path when one exists
	// (and starts fresh when none does). False discards any prior
	// checkpoint there.
	Resume bool
	// Sync fsyncs every commit — machine-crash durability at real per-round
	// I/O cost. Off, commits still survive a process kill (SIGKILL
	// included); see checkpoint.Options.
	Sync bool
	// Interval snapshots every k-th boundary (0 = every round). The WAL
	// gets every round regardless.
	Interval int
	// AfterCommit, when non-nil, runs after each boundary becomes durable
	// with the number of committed rounds — the seam the crash/resume
	// harness uses to kill the process at an exact boundary.
	AfterCommit func(rounds int)
}

// execution keeps where and how updates execute and drops what belongs to
// one run, its checkpoint and its event stream: the validation probes train
// many throwaway segments under it.
func (c RunConfig) execution() RunConfig {
	return RunConfig{Backend: c.Backend, Cluster: c.Cluster, GroupSize: c.GroupSize}
}

// Leg is one training leg as far as its result goes: everything here can
// change what the run computes, and nothing in RunConfig can.
type Leg struct {
	// Scheme and Run label the leg's events; Scheme is also the registered
	// pricing scheme an elastic leg is re-priced under.
	Scheme string
	Run    int

	// Rounds, EvalEvery and Schedule default to the environment's
	// Opts.Rounds and Opts.EvalEvery and to the ExpDecay schedule every
	// priced run trains under. Local steps and batch size are always the
	// environment's.
	Rounds    int
	EvalEvery int
	Schedule  engine.Schedule

	Seed    uint64 // executor seed: client n's SGD stream is its n-th Split
	Sampler engine.Sampler
	Tamper  func(round int, u *engine.ClientUpdate) // see engine.Spec.Tamper

	// Membership, when non-nil, makes the leg elastic. At every epoch —
	// those replayed on resume included — Launch re-solves Scheme over the
	// active clients of Pricing (nil: the environment's game) through one
	// warm repricer, bit-identical to cold solves, writes the new levels
	// into Q in place, hands Q to the Sampler's SetQ, then calls OnEpoch.
	Membership *engine.MembershipPlan
	Pricing    *game.Params
	Q          []float64
	OnEpoch    func(engine.Roster, game.EpochPricing)

	// CheckpointLabel and CheckpointSeed go into the checkpoint's Meta with
	// the fleet size and horizon: a checkpoint refuses to resume into a leg
	// that states different ones.
	CheckpointLabel string
	CheckpointSeed  uint64

	// Delay holds per-client straggler factors: the cluster backend stalls
	// a client with factor f > 1 for f·StragglerUnit per round.
	Delay []float64

	// Serial keeps the local backend off its worker pool, for callers that
	// already saturate the CPU at a coarser grain (parallel sweep points).
	Serial bool
}

// Launch runs one leg of the paper's protocol on the environment's model
// and data — participation by the leg's sampler, Lemma 1's a_n/q_n
// aggregation — under cfg. It is the only place above internal/engine that
// compiles an engine.Spec, bridges round hooks to Observer events, wires
// elastic re-pricing, opens and commits a checkpoint, picks a backend and
// calls engine.Run; RunScheme and the sweeps, the validation probes,
// scenario.RunWith with its honest twin and cmd/flnode's coordinator build a
// sampler and seeds and call it. Outside it on purpose: fl.Calibrate (a
// layer below this package) and scenario.ReplayAggregate (the Lemma-1
// oracle, which drives Dispatch by hand). Errors come back unwrapped.
func Launch(ctx context.Context, env *Environment, leg Leg, cfg RunConfig) (*engine.RunResult, error) {
	spec := engine.Spec{
		Model:      env.Model,
		Fed:        env.Fed,
		Rounds:     leg.Rounds,
		LocalSteps: env.Opts.LocalSteps,
		BatchSize:  env.Opts.BatchSize,
		Schedule:   leg.Schedule,
		EvalEvery:  leg.EvalEvery,
		Seed:       leg.Seed,
		Sampler:    leg.Sampler,
		Aggregator: engine.UnbiasedAggregator{},
		GroupSize:  cfg.GroupSize,
		Tamper:     leg.Tamper,
	}
	if spec.Rounds == 0 {
		spec.Rounds = env.Opts.Rounds
	}
	if spec.EvalEvery == 0 {
		spec.EvalEvery = env.Opts.EvalEvery
	}
	if spec.Schedule == nil {
		spec.Schedule = engine.ExpDecay{Eta0: 0.1, Decay: 0.996}
	}
	if obs := cfg.Events; obs != nil {
		spec.OnRoundStart = func(round int) {
			obs.OnEvent(RoundStart{Scheme: leg.Scheme, Run: leg.Run, Round: round})
		}
		spec.OnRound = func(m engine.RoundMetrics) {
			obs.OnEvent(RoundEnd{
				Scheme:       leg.Scheme,
				Run:          leg.Run,
				Round:        m.Round,
				Participants: m.Participants,
				Evaluated:    m.Evaluated,
				Loss:         m.GlobalLoss,
				Accuracy:     m.TestAccuracy,
			})
		}
	}
	if leg.Membership != nil {
		sampler, ok := leg.Sampler.(interface{ SetQ([]float64) error })
		if !ok {
			return nil, fmt.Errorf("experiment: a membership plan needs a sampler with SetQ to re-price into, got %T", leg.Sampler)
		}
		ps, err := game.SchemeByName(leg.Scheme)
		if err != nil {
			return nil, err
		}
		pricing := leg.Pricing
		if pricing == nil {
			pricing = env.Params
		}
		rp, err := game.NewRepricer(pricing, ps)
		if err != nil {
			return nil, err
		}
		spec.Membership = leg.Membership
		spec.OnEpoch = func(r engine.Roster) error {
			ep, err := rp.Reprice(r.Active, leg.Q, nil)
			if err != nil {
				return fmt.Errorf("epoch %d re-pricing: %w", r.Epoch, err)
			}
			if err := sampler.SetQ(leg.Q); err != nil {
				return err
			}
			if leg.OnEpoch != nil {
				leg.OnEpoch(r, ep)
			}
			return nil
		}
	}

	var backend engine.ExecutionBackend
	switch cfg.Backend {
	case BackendLocal:
		backend = engine.NewLocalBackend(engine.LocalOptions{Parallel: !leg.Serial})
	case BackendCluster:
		cc := cfg.Cluster
		backend = engine.NewClusterBackend(engine.ClusterOptions{
			Addr: cc.Addr, Timeout: cc.Timeout, RoundTimeout: cc.RoundTimeout,
			NodeDelay: nodeDelay(cc.StragglerUnit, leg.Delay),
		})
	default:
		return nil, fmt.Errorf("experiment: unknown backend %v", cfg.Backend)
	}

	// The checkpoint opens last: a refused leg never truncates an earlier
	// checkpoint, and nothing between here and the run can fail with the
	// files held open.
	var mgr *checkpoint.Manager
	if cc := cfg.Checkpoint; cc.Path != "" {
		meta := checkpoint.Meta{Label: leg.CheckpointLabel, Seed: leg.CheckpointSeed, Clients: env.Fed.NumClients(), Rounds: spec.Rounds}
		opts := checkpoint.Options{Interval: cc.Interval, Sync: cc.Sync}
		var err error
		if cc.Resume {
			mgr, spec.Resume, err = checkpoint.Attach(cc.Path, meta, opts)
		} else {
			mgr, err = checkpoint.Create(cc.Path, meta, opts)
		}
		if err != nil {
			return nil, err
		}
		spec.OnRoundCommit = func(st *engine.RunState) error {
			if err := mgr.Commit(st); err != nil {
				return err
			}
			if cc.AfterCommit != nil {
				cc.AfterCommit(st.NextRound)
			}
			return nil
		}
	}

	res, err := engine.Run(ctx, spec, backend)
	if mgr != nil {
		if cerr := mgr.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}
	return res, err
}

// nodeDelay compiles straggler factors into the cluster backend's per-node
// stall hook (nil when the fleet has no stragglers).
func nodeDelay(unit time.Duration, factors []float64) func(int) time.Duration {
	if unit <= 0 {
		unit = time.Millisecond
	}
	for _, f := range factors {
		if f > 1 {
			return func(client int) time.Duration {
				if f := factors[client]; f > 1 {
					return time.Duration(float64(unit) * f)
				}
				return 0
			}
		}
	}
	return nil
}

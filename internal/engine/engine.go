// Package engine is the unified federation engine: one backend-agnostic
// round orchestrator behind pluggable execution backends.
//
// The paper's unbiasedness guarantee is a property of the round protocol —
// sample participants by priced q, run E local SGD steps on each, aggregate
// with inverse-probability weights — not of any particular execution
// substrate. This package owns that protocol exactly once:
//
//	spec (what to train) ──► Orchestrator (the canonical round loop)
//	                              │
//	                              ▼ Dispatch(ctx, round, global, tasks)
//	                    ExecutionBackend (where updates run)
//	                    ├── LocalBackend    in-process worker pool,
//	                    │                   zero-alloc scratch arenas
//	                    └── ClusterBackend  real TCP coordinator + one
//	                              ▲         socket node per client or group
//	                              │ dial in, hello → welcome(cursor)
//	                    ServeNode (the one device loop)
//	                    ├── goroutines the backend spawns on loopback
//	                    └── other processes (cmd/flnode -role client) when
//	                        ClusterOptions.Addr is set: external devices
//
// The Orchestrator owns everything that determines the result: willingness
// and availability sampling on separate RNG streams, per-round learning
// rates, deterministic index-ordered aggregation, divergence checks, and
// evaluation. A backend owns only the execution of local updates. Both
// built-in backends derive client n's private SGD stream as the n-th Split
// of the spec seed and run the same local-update code, so a run is
// bit-identical across backends and for any GOMAXPROCS — the property the
// golden-trace backend-equivalence matrix in internal/scenario pins. There is
// no other coordinator: the TCP prototype (cmd/flnode, examples/prototype)
// is this orchestrator on a ClusterBackend.
//
// Why two dispatch paths remain. Flat dispatch (ExecutionBackend.Dispatch,
// MsgRoundStart/MsgUpdate, one socket per client, Aggregator.Aggregate at
// the coordinator) computes what hierarchical dispatch
// (PartialBackend.DispatchPartials, MsgBatchStart/MsgPartial) computes at
// K=1 — the fixed-point fold makes every grouping bit-identical. They stay
// two interfaces and two message pairs for two reasons. First, the benchmark
// module (benchmark/trace.go, benchmark/micro.go) compiles against both
// interfaces, Aggregator.Aggregate, MsgRoundStart and MsgUpdate, and the
// benchmark may not change together with the code it measures; the merge
// has to follow a benchmark change. Second, K=1 partials are not free on the
// wire: the fixed layout carries an update's delta as one float64 per
// parameter (8 B) and a partial's sum as two uint64 limbs (16 B), so at the
// session-durable workload's model size, p = 1 690 — a round start is a
// 13 615 B frame and an update 13 671 B — the K=1 partial replacing that
// update would be 27 207 B: per-client return traffic doubles, and the
// aggregators that need unscaled deltas (proportional, naive inverse) could
// not ride it at all. transport's TestWireBytesPerParam computes all three
// figures from the encoder.
//
// Above this package one function compiles a Spec, picks a backend and calls
// Run: experiment.Launch, the launch path of every priced run (sessions and
// sweeps, scenarios, cmd/flnode, flserve). experiment.Calibrate hands Run its
// own Spec, because it runs before the environment Launch takes exists; the
// benchmark module builds its specs itself by contract.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/tensor"
)

// Schedule produces the learning rate for a given round.
type Schedule interface {
	LR(round int) float64
}

// Sampler decides which clients take part in a round. Implementations must
// return indices in ascending order without duplicates; the orchestrator
// aggregates in the returned order, so this is what makes the global model
// independent of backend scheduling.
type Sampler interface {
	// Sample returns the indices of participating clients for the round.
	Sample(round int) []int
	// NumClients reports the total client population.
	NumClients() int
}

// LevelsSampler is implemented by samplers that expose per-client marginal
// participation probabilities for the unbiased aggregation rule.
type LevelsSampler interface {
	EffectiveQ() []float64
}

// ClientTask is one unit of dispatched work: run LocalSteps mini-batch SGD
// steps for Client starting from the round's global model at learning rate
// LR.
type ClientTask struct {
	Client int
	LR     float64
	// Scale is the Lemma-1 coefficient a_n/q_n the executor folds its delta
	// with in hierarchical (grouped) dispatch, where the weighted sum is
	// computed where the update runs. Zero in flat dispatch, where the
	// coordinator-side aggregator applies the coefficient itself.
	Scale float64
	// Factor is the client's poisoning factor this round, stamped by the
	// orchestrator from Spec.Poison: 1 when honest. A grouped executor folds
	// fl(Scale·fl(Factor·(w − global))); in flat dispatch the backend ignores
	// it and the orchestrator scales the returned delta by it.
	Factor float64
}

// ClientUpdate is one participant's contribution to a round.
type ClientUpdate struct {
	Client int
	// Delta is the model delta w_n^{r+1} − w^r produced by the client's
	// local SGD steps. Backends may reuse the backing array across rounds;
	// the orchestrator consumes it before the next Dispatch.
	Delta tensor.Vec
}

// Aggregator folds participant updates into the global model in place.
type Aggregator interface {
	// Aggregate applies the participants' deltas to global. weights are the
	// data weights a_n and q the participation levels q_n, both indexed by
	// client over the full population.
	Aggregate(global tensor.Vec, updates []ClientUpdate, weights, q []float64) error
}

// ExecutionBackend executes one round's local updates. The orchestrator
// calls Open once before the first round, Dispatch once per round, and
// Close exactly once when the run ends (normally or not).
//
// Dispatch must fill one ClientUpdate per task, in task order — the
// orchestrator's aggregation order — and must produce updates that depend
// only on the spec and the task sequence, never on scheduling. The returned
// slice is valid until the next Dispatch call.
type ExecutionBackend interface {
	Open(ctx context.Context, spec *Spec) error
	Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []ClientTask) ([]ClientUpdate, error)
	Close() error
}

// Partial is one sub-aggregator group's folded contribution to a round: the
// fixed-point limbs of Σ_{n∈group∩S_r} (a_n/q_n)·f_n·delta_n, f_n the
// member's poisoning factor (1 when honest), together with the members that
// contributed. Shipping partials instead of K full updates is what cuts
// coordinator ingress from O(fleet·model) to O(groups·model).
type Partial struct {
	// Group is the group index (clients [Group·K, (Group+1)·K)).
	Group int
	// Clients lists the group's tasked members, exactly as dispatched and in
	// dispatch (ascending) order: a group either lands whole or not at all.
	Clients []int
	// Lo and Hi are the 128-bit fixed-point limbs of the group sum, one pair
	// per model parameter (see FixAcc).
	Lo, Hi []uint64
	// Sat reports fixed-point saturation anywhere in the group fold.
	Sat bool
}

// PartialBackend is the hierarchical-dispatch seam: backends that can fold
// group partials where the updates run implement it alongside
// ExecutionBackend. DispatchPartials executes every task, folds each member's
// update straight from its trained parameters and global —
// fixpoint.(*Acc).AddScaledDiff(task.Scale, task.Factor, w, global), no delta
// buffer, the same addend the flat path's scaled delta gives — and delivers
// one Partial per non-empty group via sink. The backend must serialize sink
// calls; the sink must not retain a partial's slices after returning (they
// may alias backend buffers). Partial delivery order is unspecified — the
// fixed-point merge is commutative, so order cannot affect the result.
type PartialBackend interface {
	DispatchPartials(ctx context.Context, round int, global tensor.Vec,
		tasks []ClientTask, groupSize int, sink func(Partial) error) error
}

// RoundMetrics records the state of one training round. Loss and accuracy
// are populated only when Evaluated is true (evaluation is throttled via
// Spec.EvalEvery because a full-train-set evaluation dominates runtime).
type RoundMetrics struct {
	Round        int
	Participants int
	// ParticipantIDs lists the clients that joined this round; the timing
	// model consumes it to compute per-round wall-clock durations.
	ParticipantIDs []int
	Evaluated      bool
	GlobalLoss     float64
	TestAccuracy   float64
}

// RunResult bundles the full training trajectory with the final model.
type RunResult struct {
	History    []RoundMetrics
	FinalModel tensor.Vec
	FinalLoss  float64
	FinalAcc   float64
}

// Spec describes one federated run: the model and data, the training scale,
// and the sampling/aggregation policy. It is what every layer above
// compiles its configuration down to.
type Spec struct {
	Model model.Model
	Fed   *data.Federated

	Rounds     int      // R
	LocalSteps int      // E local SGD iterations per round
	BatchSize  int      // SGD mini-batch size
	Schedule   Schedule // learning-rate schedule
	EvalEvery  int      // evaluate global loss/accuracy every this many rounds
	Seed       uint64   // run seed; every client derives a private stream (the n-th Split)

	Sampler    Sampler
	Aggregator Aggregator

	// GroupSize, when > 1, turns on hierarchical aggregation: participants
	// are partitioned into sub-aggregator groups of this many consecutive
	// clients (group g owns clients [g·K, (g+1)·K)), each group folds its
	// members' weighted deltas where they execute, and the coordinator merges
	// only the group partials. Requires a backend implementing
	// PartialBackend and the UnbiasedAggregator's Lemma-1 weighting (the
	// Scale each task carries). The result is bit-identical to the flat path
	// for every group size — the fixed-point accumulator makes the sum
	// independent of grouping — so GroupSize is purely an execution/memory
	// knob. 0 or 1 keeps classic flat dispatch.
	GroupSize int

	// Poison is the gradient-poisoning table: from round FromRound on, the
	// listed client's update w − global is scaled by Factor before it is
	// weighted and folded. It is data, not a hook, so it crosses every
	// boundary an update does: the orchestrator stamps each task's
	// ClientTask.Factor from it (1 when honest), a grouped executor — in
	// process, a spawned group node, or another process, which receives the
	// factors in its batch — folds with it, and on the flat path the
	// orchestrator scales the returned delta. The addend is the same
	// fl(scale·fl(factor·fl(w − global))) everywhere, so a poisoned run is
	// byte-identical across backends and group sizes and, being a pure
	// function of (client, round), replays identically on resume. Validate
	// checks it: clients in range and listed once, factors finite, rounds
	// non-negative. Nil or empty is an honest fleet.
	Poison []Poison

	// Membership, when non-nil, makes the roster elastic: clients join and
	// permanently leave at the plan's round boundaries. The sampler still
	// draws coins for the whole population every round (stream discipline);
	// inactive clients are filtered from the participant set, and the data
	// weights are renormalized over the active subset so the aggregate stays
	// an unbiased estimator of the active fleet's gradient. Nil keeps the
	// classic fixed roster.
	Membership *MembershipPlan
	// OnEpoch, when non-nil, fires once per membership epoch — at the start
	// of the run with the initial roster, then at every event boundary —
	// before the epoch's first round executes. It is the re-pricing seam:
	// layers above re-solve the equilibrium for the new fleet here and feed
	// the sampler its new q. On resume the hook is replayed for every epoch
	// up to the boundary, so deterministic hooks reconstruct their state
	// exactly. A non-nil error aborts the run. Ignored when Membership is
	// nil.
	OnEpoch func(Roster) error

	// OnRoundStart, when non-nil, is invoked before every round's local
	// updates begin — the streaming-observer entry hook. It runs on the
	// orchestration goroutine; keep it fast.
	OnRoundStart func(round int)
	// OnRound, when non-nil, is invoked after every round with that round's
	// metrics — a progress hook for long paper-scale runs. It runs on the
	// orchestration goroutine; keep it fast.
	OnRound func(RoundMetrics)
	// OnRoundCommit, when non-nil, is invoked after every round with the
	// full resumable RunState at the new round boundary — the checkpoint
	// seam. The state's slices are reused between rounds: a hook that needs
	// the state beyond its own call must Clone (or encode) it before
	// returning. A non-nil error aborts the run.
	OnRoundCommit func(*RunState) error
	// Resume, when non-nil, starts the run at a previously committed round
	// boundary instead of round zero: the global model, history, sampler
	// streams, and per-client cursors are restored so the remaining rounds
	// are bit-identical to the uninterrupted run's.
	Resume *RunState
}

// Poison is one row of Spec.Poison: from round FromRound on, Client's model
// delta is scaled by Factor. Negative factors flip the update's direction,
// magnitudes above one amplify it, zero suppresses it.
type Poison struct {
	Client    int
	Factor    float64
	FromRound int
}

// Validate checks the spec before a run.
func (s Spec) Validate() error {
	switch {
	case s.Model == nil:
		return errors.New("engine: nil model")
	case s.Fed == nil || s.Fed.NumClients() == 0:
		return errors.New("engine: nil or empty federation")
	case s.Sampler == nil:
		return errors.New("engine: nil sampler")
	case s.Aggregator == nil:
		return errors.New("engine: nil aggregator")
	case s.Sampler.NumClients() != s.Fed.NumClients():
		return fmt.Errorf("engine: sampler covers %d clients, federation has %d",
			s.Sampler.NumClients(), s.Fed.NumClients())
	case s.Rounds <= 0:
		return errors.New("engine: rounds must be positive")
	case s.LocalSteps <= 0:
		return errors.New("engine: local steps must be positive")
	case s.BatchSize <= 0:
		return errors.New("engine: batch size must be positive")
	case s.Schedule == nil:
		return errors.New("engine: nil schedule")
	case s.EvalEvery <= 0:
		return errors.New("engine: eval interval must be positive")
	case s.GroupSize < 0:
		return errors.New("engine: group size must be non-negative")
	}
	if s.Membership != nil {
		if err := s.Membership.Validate(s.Fed.NumClients(), s.Rounds); err != nil {
			return err
		}
	}
	return validatePoison(s.Poison, s.Fed.NumClients())
}

// validatePoison checks a poison table against an n-client fleet.
func validatePoison(table []Poison, n int) error {
	seen := make(map[int]bool, len(table))
	for _, p := range table {
		switch {
		case p.Client < 0 || p.Client >= n:
			return fmt.Errorf("engine: poisoning client %d out of range [0,%d)", p.Client, n)
		case math.IsNaN(p.Factor) || math.IsInf(p.Factor, 0):
			return fmt.Errorf("engine: client %d poison factor %v must be finite", p.Client, p.Factor)
		case p.FromRound < 0:
			return fmt.Errorf("engine: client %d poison round %d must be non-negative", p.Client, p.FromRound)
		case seen[p.Client]:
			return fmt.Errorf("engine: client %d appears twice in the poison table", p.Client)
		}
		seen[p.Client] = true
	}
	return nil
}

// poisonIndex is Spec.Poison keyed by client, built once per run; nil for an
// honest fleet.
type poisonIndex map[int]Poison

func newPoisonIndex(table []Poison) poisonIndex {
	if len(table) == 0 {
		return nil
	}
	ix := make(poisonIndex, len(table))
	for _, p := range table {
		ix[p.Client] = p
	}
	return ix
}

// factor is client n's poisoning factor in round: 1 unless it is listed and
// its attack has started.
func (ix poisonIndex) factor(n, round int) float64 {
	if p, ok := ix[n]; ok && round >= p.FromRound {
		return p.Factor
	}
	return 1
}

// participationLevels exposes q to the aggregator. Samplers without explicit
// levels (full or fixed-subset participation) report q = 1 for every client,
// under which the unbiased rule reduces to plain weighted averaging.
func (s *Spec) participationLevels() []float64 {
	if ls, ok := s.Sampler.(LevelsSampler); ok {
		return ls.EffectiveQ()
	}
	q := make([]float64, s.Fed.NumClients())
	for i := range q {
		q[i] = 1
	}
	return q
}

package engine

import (
	"context"
	"fmt"
	"sort"

	"unbiasedfl/internal/tensor"
)

// Orchestrator drives the canonical round protocol over an execution
// backend. It is single-use: construct one per run (or use Run, which does).
type Orchestrator struct {
	Spec    Spec
	Backend ExecutionBackend

	// Per-round buffers, reused across rounds so the steady-state loop does
	// not allocate.
	tasks []ClientTask
	seen  []bool
	// Hierarchical-mode buffers: the top-level fixed-point accumulator that
	// merges streamed group partials — the only model-sized aggregation
	// state the coordinator holds — and the participant-id scratch.
	acc *FixAcc
	ids []int
	// Commit-hook buffers, reused across OnRoundCommit calls.
	commit  RunState
	cursors []ClientCursor
}

// Run executes the spec on the backend. It is the single implementation of
// the round protocol: equilibrium-priced sampling, dispatch, deterministic
// index-ordered aggregation, divergence checks, throttled evaluation, and
// observer hooks. Cancelling the context stops training promptly — the
// check granularity is one client-side local update — and the error is
// ctx.Err(). The backend is closed before Run returns.
func (o *Orchestrator) Run(ctx context.Context) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Backend == nil {
		return nil, fmt.Errorf("engine: nil backend")
	}
	s := &o.Spec
	if err := s.Validate(); err != nil {
		return nil, err
	}

	nClients := s.Fed.NumClients()
	global := s.Model.ZeroParams()
	history := make([]RoundMetrics, 0, s.Rounds)
	q := s.participationLevels()
	weights := s.Fed.Weights
	poison := newPoisonIndex(s.Poison)

	// Resume restoration happens before Open: a cluster backend hands each
	// node its cursor inside the welcome message, so the backend must know
	// the cursors by the time its fleet boots.
	start := 0
	if r := s.Resume; r != nil {
		if err := validateResume(r, s, len(global), nClients); err != nil {
			return nil, err
		}
		start = r.NextRound
		copy(global, r.Model)
		history = append(history, r.History...)
		ss, statefulSampler := s.Sampler.(StatefulSampler)
		switch {
		case r.Sampler != nil && !statefulSampler:
			return nil, fmt.Errorf("engine: resume carries sampler state but the sampler is stateless")
		case r.Sampler == nil && statefulSampler && start > 0:
			return nil, fmt.Errorf("engine: resume lacks state for a stateful sampler")
		case r.Sampler != nil:
			if err := ss.RestoreSamplerState(r.Sampler); err != nil {
				return nil, fmt.Errorf("engine: restore sampler: %w", err)
			}
		}
		sb, statefulBackend := o.Backend.(StatefulBackend)
		switch {
		case len(r.Clients) > 0 && !statefulBackend:
			return nil, fmt.Errorf("engine: resume carries client cursors but the backend is stateless")
		case len(r.Clients) == 0 && statefulBackend && start > 0:
			return nil, fmt.Errorf("engine: resume lacks client cursors")
		case len(r.Clients) > 0:
			if err := sb.RestoreClientCursors(r.Clients); err != nil {
				return nil, fmt.Errorf("engine: restore client cursors: %w", err)
			}
		}
	}

	// Membership: establish the roster at the starting boundary and fire the
	// OnEpoch hook for every epoch already behind us — epoch zero always, and
	// on resume each event that fired before the boundary, in order. Replay
	// is what lets a deterministic re-pricing hook (warm ≡ cold solves)
	// reconstruct the sampler's q and its own ledger exactly, so a resumed
	// elastic run stays byte-identical to its uninterrupted twin.
	plan := s.Membership
	var active []bool
	var wbuf []float64
	epoch, evIdx := 0, 0
	if plan != nil {
		active = plan.ActiveAt(0, nClients)
		if s.OnEpoch != nil {
			if err := s.OnEpoch(Roster{Epoch: 0, Round: 0, Active: active}); err != nil {
				return nil, fmt.Errorf("engine: epoch 0: %w", err)
			}
		}
		for evIdx < len(plan.Events) && plan.Events[evIdx].Round < start {
			ev := &plan.Events[evIdx]
			evIdx++
			epoch++
			for _, n := range ev.Join {
				active[n] = true
			}
			for _, n := range ev.Leave {
				active[n] = false
			}
			if s.OnEpoch != nil {
				roster := Roster{Epoch: epoch, Round: ev.Round, Active: active, Joined: ev.Join, Left: ev.Leave}
				if err := s.OnEpoch(roster); err != nil {
					return nil, fmt.Errorf("engine: replay epoch %d: %w", epoch, err)
				}
			}
		}
		q = s.participationLevels()
		wbuf = make([]float64, nClients)
		weights = renormWeights(wbuf, s.Fed.Weights, active)
	}

	// Hierarchical mode: participants fold into sub-aggregator group
	// partials where they execute, and the coordinator merges only the
	// partials. Resolved once — the backend either supports it or the spec
	// is rejected before any work runs.
	useHier := s.GroupSize > 1
	var hb PartialBackend
	if useHier {
		var ok bool
		if hb, ok = o.Backend.(PartialBackend); !ok {
			return nil, fmt.Errorf("engine: GroupSize %d needs a hierarchical backend, %T is not one", s.GroupSize, o.Backend)
		}
		if _, ok := s.Aggregator.(UnbiasedAggregator); !ok {
			return nil, fmt.Errorf("engine: hierarchical aggregation supports only the unbiased (Lemma-1) aggregator, got %T", s.Aggregator)
		}
	}

	if err := o.Backend.Open(ctx, s); err != nil {
		return nil, fmt.Errorf("engine: open backend: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = o.Backend.Close()
		}
	}()

	for round := start; round < s.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Epoch boundary: the event at this round fires before the round
		// executes. The backend churns its node fleet first (admitting
		// joiners, retiring leavers), then the hook re-prices, then the
		// aggregation inputs are refreshed from the new roster.
		if plan != nil && evIdx < len(plan.Events) && plan.Events[evIdx].Round == round {
			ev := &plan.Events[evIdx]
			evIdx++
			epoch++
			for _, n := range ev.Join {
				active[n] = true
			}
			for _, n := range ev.Leave {
				active[n] = false
			}
			roster := Roster{Epoch: epoch, Round: round, Active: active, Joined: ev.Join, Left: ev.Leave}
			if eb, ok := o.Backend.(EpochBackend); ok {
				if err := eb.ApplyEpoch(ctx, roster); err != nil {
					return nil, ctxErrOr(ctx, fmt.Errorf("engine: epoch %d apply: %w", epoch, err))
				}
			}
			if s.OnEpoch != nil {
				if err := s.OnEpoch(roster); err != nil {
					return nil, fmt.Errorf("engine: epoch %d: %w", epoch, err)
				}
			}
			q = s.participationLevels()
			weights = renormWeights(wbuf, s.Fed.Weights, active)
		}
		if s.OnRoundStart != nil {
			s.OnRoundStart(round)
		}
		participants := s.Sampler.Sample(round)
		if plan != nil {
			participants = filterActive(participants, active)
		}
		lr := s.Schedule.LR(round)
		if err := o.checkDistinct(participants, nClients); err != nil {
			return nil, err
		}

		if cap(o.tasks) < len(participants) {
			o.tasks = make([]ClientTask, len(participants))
		}
		tasks := o.tasks[:len(participants)]
		poisoned := false
		for i, n := range participants {
			tasks[i] = ClientTask{Client: n, LR: lr, Factor: 1}
			if poison != nil {
				tasks[i].Factor = poison.factor(n, round)
				poisoned = poisoned || tasks[i].Factor != 1
			}
			if useHier {
				qn := q[n]
				if qn <= 0 {
					return nil, fmt.Errorf("engine: participant %d has non-positive q", n)
				}
				tasks[i].Scale = weights[n] / qn
			}
		}

		// The round's record lists the clients whose updates actually landed.
		// Strict backends execute every task, so this is exactly the sampled
		// set; a self-healing backend may deliver fewer (a crashed or
		// deadline-missing node — in hierarchical mode a whole missed group),
		// and the shortfall is recorded here — the client is simply
		// unavailable this round, which is the regime the unbiased
		// aggregation rule already prices in.
		var ids []int
		if useHier {
			hids, err := o.hierRound(ctx, hb, round, global, tasks)
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			ids = make([]int, len(hids))
			copy(ids, hids)
		} else {
			updates, err := o.Backend.Dispatch(ctx, round, global, tasks)
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			if poisoned {
				// The flat path's poisoning: fl(factor·delta[j]), the addend a
				// grouped executor folds, before the aggregator weighs it.
				for i := range updates {
					if f := poison.factor(updates[i].Client, round); f != 1 {
						updates[i].Delta.Scale(f)
					}
				}
			}
			if err := s.Aggregator.Aggregate(global, updates, weights, q); err != nil {
				return nil, fmt.Errorf("round %d aggregate: %w", round, err)
			}
			ids = make([]int, len(updates))
			for i, u := range updates {
				ids[i] = u.Client
			}
		}
		if !global.IsFinite() {
			return nil, fmt.Errorf("round %d: model diverged", round)
		}

		m := RoundMetrics{
			Round:          round,
			Participants:   len(ids),
			ParticipantIDs: ids,
		}
		if (round+1)%s.EvalEvery == 0 || round == s.Rounds-1 {
			loss, err := s.Model.Loss(global, s.Fed.Train)
			if err != nil {
				return nil, err
			}
			acc, err := s.Model.Accuracy(global, s.Fed.Test)
			if err != nil {
				return nil, err
			}
			m.Evaluated = true
			m.GlobalLoss = loss
			m.TestAccuracy = acc
		}
		history = append(history, m)
		if s.OnRound != nil {
			s.OnRound(m)
		}
		if s.OnRoundCommit != nil {
			if err := o.commitRound(round+1, epoch, global, history); err != nil {
				return nil, fmt.Errorf("round %d commit: %w", round, err)
			}
		}
	}

	// Close before returning so backend teardown errors (a cluster node that
	// died after its last update, say) surface instead of vanishing.
	closed = true
	if err := o.Backend.Close(); err != nil {
		return nil, fmt.Errorf("engine: close backend: %w", err)
	}

	res := &RunResult{
		History:    history,
		FinalModel: global,
	}
	if len(history) > 0 {
		last := history[len(history)-1]
		res.FinalLoss = last.GlobalLoss
		res.FinalAcc = last.TestAccuracy
	}
	return res, nil
}

// hierRound dispatches one hierarchical round: the backend folds each
// sub-aggregator group's weighted deltas where they execute and streams the
// partials here, where they merge into a single fixed-point accumulator —
// the only model-sized aggregation state the coordinator holds, O(model)
// regardless of fleet size. The returned ids (ascending) alias o.ids.
func (o *Orchestrator) hierRound(
	ctx context.Context, hb PartialBackend, round int,
	global tensor.Vec, tasks []ClientTask,
) ([]int, error) {
	s := &o.Spec
	if o.acc == nil || o.acc.Len() != len(global) {
		o.acc = NewFixAcc(len(global))
	} else {
		o.acc.Reset()
	}
	o.ids = o.ids[:0]
	err := hb.DispatchPartials(ctx, round, global, tasks, s.GroupSize, func(p Partial) error {
		if err := o.acc.MergeLimbs(p.Lo, p.Hi, p.Sat); err != nil {
			return err
		}
		o.ids = append(o.ids, p.Clients...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Partial arrival order is backend-scheduling dependent; the integer
	// merge is commutative so the model is not, but the participant record
	// must match the flat path's ascending order.
	sort.Ints(o.ids)
	if err := o.acc.AddTo(global); err != nil {
		return nil, err
	}
	return o.ids, nil
}

// commitRound assembles the resumable state at the new round boundary and
// hands it to the OnRoundCommit hook. The RunState and its cursor slice are
// reused between calls; the hook owns the data only for the duration of its
// call (see Spec.OnRoundCommit).
func (o *Orchestrator) commitRound(nextRound, epoch int, global tensor.Vec, history []RoundMetrics) error {
	s := &o.Spec
	st := &o.commit
	st.NextRound = nextRound
	st.Epoch = epoch
	st.Model = global
	st.History = history
	st.Sampler = nil
	if ss, ok := s.Sampler.(StatefulSampler); ok {
		st.Sampler = ss.SamplerState()
	}
	st.Clients = nil
	if sb, ok := o.Backend.(StatefulBackend); ok {
		n := s.Fed.NumClients()
		if cap(o.cursors) < n {
			o.cursors = make([]ClientCursor, n)
		}
		st.Clients = o.cursors[:n]
		if err := sb.ClientCursors(st.Clients); err != nil {
			return err
		}
	}
	return s.OnRoundCommit(st)
}

// checkDistinct rejects samplers that hand out the same client twice in one
// round: a client's RNG, scratch arena, and delta buffer are single-owner
// within a round, so a duplicate would corrupt the aggregate (and race under
// a parallel backend).
func (o *Orchestrator) checkDistinct(participants []int, nClients int) error {
	if len(o.seen) != nClients {
		o.seen = make([]bool, nClients)
	}
	dup := -1
	for _, n := range participants {
		if n < 0 || n >= nClients {
			dup = -2
			break
		}
		if o.seen[n] {
			dup = n
			break
		}
		o.seen[n] = true
	}
	for _, n := range participants {
		if n >= 0 && n < nClients {
			o.seen[n] = false
		}
	}
	switch {
	case dup == -2:
		return fmt.Errorf("engine: sampler returned an out-of-range client")
	case dup >= 0:
		return fmt.Errorf("engine: sampler returned client %d twice in one round", dup)
	}
	return nil
}

// Run executes spec on backend — the package's one-call entry point.
func Run(ctx context.Context, spec Spec, backend ExecutionBackend) (*RunResult, error) {
	o := &Orchestrator{Spec: spec, Backend: backend}
	return o.Run(ctx)
}

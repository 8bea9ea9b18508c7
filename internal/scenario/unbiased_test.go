package scenario

import (
	"context"
	"fmt"
	"math"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// ReplayConfig tunes the metamorphic unbiasedness replay. The zero value asks
// for the defaults.
type ReplayConfig struct {
	// Reps is the number of independent participation draws (default 160).
	Reps int
	// Round is the training round whose aggregate is replayed (default 0).
	// The model is held at w^0 for every rep, so the only randomness under
	// test is the participation sampling itself.
	Round int
	// Probes is the number of deterministic Gaussian probe directions the
	// aggregates are projected onto (default 3): a scalar z-test per probe
	// instead of a d-dimensional one, without privileging any coordinate.
	Probes int
	// Aggregator overrides the aggregation rule under test (default
	// engine.UnbiasedAggregator — swap in a biased rule to verify the checker
	// has teeth).
	Aggregator engine.Aggregator
	// Seed perturbs the replay's own sampling streams so independent checks
	// of one scenario draw independent participation sequences.
	Seed uint64
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Reps == 0 {
		c.Reps = 160
	}
	if c.Probes == 0 {
		c.Probes = 3
	}
	if c.Aggregator == nil {
		c.Aggregator = engine.UnbiasedAggregator{}
	}
	return c
}

// Replay is the evidence ReplayAggregate collects: per-probe projections of
// Reps independently sampled one-round aggregates, next to the analytic
// expectation of the estimator and of the full-participation gradient step.
//
// The unbiasedness theorem (Lemma 1) says E[aggregate] = Σ_n p_n (a_n/q_n) Δ_n
// where p_n is each client's true marginal participation probability and q_n
// the server's priced belief. TargetProj is that expectation; FullProj is the
// full-participation step Σ_n a_n Δ_n. For an honest fleet p_n = q_n·avail_n
// makes the two differ only by exogenous faults; for a deviating fleet they
// split — the checker asserts the estimator tracks TargetProj, whatever the
// schedule did.
type Replay struct {
	// Scenario and Round identify what was replayed.
	Scenario string
	Round    int
	// Clients is the fleet size; Active the roster in effect at the round.
	Clients int
	Active  []bool
	// TrueP[n] is the analytic marginal participation probability of client n
	// at the round (drop × willingness × availability); PricedQ[n] is the
	// server's belief the aggregator divides by.
	TrueP   []float64
	PricedQ []float64
	// TargetProj[k] is the analytic expectation of the aggregate projected on
	// probe k; FullProj[k] the full-participation gradient step's projection.
	TargetProj []float64
	FullProj   []float64
	// VarProj[k] is the exact variance of a single draw's probe-k projection
	// under the round's independent participation coins:
	// Σ_n (a_n Δ_n·v_k / q_n)² p_n(1−p_n). A checker should divide by this
	// analytic spread, not the sample's own: in a finite replay a near-clamp
	// client may never flip its coin, and the sample variance then
	// underestimates the estimator's true spread badly enough to manufacture
	// an enormous z from a perfectly unbiased rule (fuzzer-found).
	VarProj []float64
	// ModalProj[k] projects the single most likely aggregate (every client in
	// iff trueP >= 1/2) on probe k, and ConstProb is the probability that all
	// Reps draws produce exactly that pattern — diagnostic context for a
	// sample that never varied: when ConstProb is non-negligible a constant
	// draw is expected behaviour, not a degenerate estimator — a fleet priced
	// at q = 0.98 simply may never flip its coin in a finite replay.
	ModalProj []float64
	ConstProb float64
	// Samples[k] holds the Reps projected aggregates for probe k.
	Samples [][]float64
}

// ReplayAggregate is the Lemma-1 oracle the property and fuzz tests judge the
// engine by; it lives with them, since nothing else runs it. It compiles the
// scenario's world once, computes every active client's round-Round model
// delta exactly once, and then replays the round's participation sampling
// Reps times on fresh coin streams, aggregating the fixed deltas under the
// rule under test. Because the deltas are fixed, the sample mean of each
// probe projection converges on the estimator's true expectation — which the
// unbiasedness theorem pins at TargetProj — and a z-test against it becomes a
// direct falsification attempt on Lemma 1 for this scenario's exact fault
// and membership schedule.
func ReplayAggregate(ctx context.Context, sc Scenario, cfg ReplayConfig) (*Replay, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	sc = sc.withDefaults()
	if cfg.Round < 0 || cfg.Round >= sc.Rounds {
		return nil, fmt.Errorf("scenario: replay round %d outside [0,%d)", cfg.Round, sc.Rounds)
	}
	w, err := prepare(ctx, sc)
	if err != nil {
		return nil, err
	}

	// Roster and priced q in effect at the round: events at rounds <= Round
	// have fired (the orchestrator fires a boundary event before the round
	// executes), and each epoch re-priced the sub-game over its roster.
	plan := compileMembership(sc.Clients, sc.Faults)
	active := plan.ActiveAt(cfg.Round+1, sc.Clients)
	q := append([]float64(nil), w.q...)
	if plan != nil {
		ps, err := game.SchemeByName(sc.Scheme)
		if err != nil {
			return nil, err
		}
		rp, err := game.NewRepricer(w.pricing, ps)
		if err != nil {
			return nil, err
		}
		roster := plan.ActiveAt(0, sc.Clients)
		if _, err := rp.Reprice(roster, q, nil); err != nil {
			return nil, err
		}
		for _, ev := range plan.Events {
			if ev.Round > cfg.Round {
				break
			}
			for _, n := range ev.Join {
				roster[n] = true
			}
			for _, n := range ev.Leave {
				roster[n] = false
			}
			if _, err := rp.Reprice(roster, q, nil); err != nil {
				return nil, err
			}
		}
	}

	// Data weights renormalized over the active roster, exactly as the
	// orchestrator aggregates them.
	weights := append([]float64(nil), w.env.Fed.Weights...)
	if plan != nil {
		sum := 0.0
		for n, a := range active {
			if a {
				sum += weights[n]
			}
		}
		for n := range weights {
			if active[n] {
				weights[n] /= sum
			} else {
				weights[n] = 0
			}
		}
	}

	// Every active client's delta at the round, computed exactly once from
	// the fixed model w^0 — the same executors (the n-th Split of the run
	// seed) every real backend derives. This is the reference oracle: it
	// drives Dispatch by hand, outside experiment.Launch, on purpose.
	root := stats.NewRNG(sc.Seed ^ 0x9E3779B97F4A7C15)
	root.Split() // will stream, unused here
	root.Split() // avail stream, unused here
	spec := engine.Spec{
		Model:      w.env.Model,
		Fed:        w.env.Fed,
		Rounds:     sc.Rounds,
		LocalSteps: sc.LocalSteps,
		BatchSize:  sc.BatchSize,
		Schedule:   engine.ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  sc.EvalEvery,
		Seed:       root.Uint64(),
	}
	backend := engine.NewLocalBackend(engine.LocalOptions{Parallel: true})
	if err := backend.Open(ctx, &spec); err != nil {
		return nil, err
	}
	defer func() { _ = backend.Close() }()
	global := w.env.Model.ZeroParams()
	lr := spec.Schedule.LR(cfg.Round)
	var tasks []engine.ClientTask
	for n := 0; n < sc.Clients; n++ {
		if active[n] {
			tasks = append(tasks, engine.ClientTask{Client: n, LR: lr})
		}
	}
	raw, err := backend.Dispatch(ctx, cfg.Round, global, tasks)
	if err != nil {
		return nil, fmt.Errorf("scenario: replay dispatch: %w", err)
	}
	deltas := make(map[int]tensor.Vec, len(raw))
	for _, u := range raw {
		deltas[u.Client] = u.Delta.Clone()
	}

	// Analytic truth: trueP from the fault schedule's exact coin probabilities
	// (including strategic deviation), target = Σ a_n (p_n/q_n) Δ_n, full
	// step = Σ a_n Δ_n.
	dim := len(global)
	trueP := make([]float64, sc.Clients)
	target := tensor.NewVec(dim)
	full := tensor.NewVec(dim)
	modal := tensor.NewVec(dim)
	patternProb := 1.0
	for n := 0; n < sc.Clients; n++ {
		if !active[n] {
			continue
		}
		trueP[n] = w.sch.ParticipationProb(n, cfg.Round, q[n])
		if qn := q[n]; qn > 0 {
			_ = target.AddScaled(weights[n]*trueP[n]/qn, deltas[n])
		}
		_ = full.AddScaled(weights[n], deltas[n])
		if trueP[n] >= 0.5 {
			patternProb *= trueP[n]
			if q[n] > 0 {
				_ = modal.AddScaled(weights[n]/q[n], deltas[n])
			}
		} else {
			patternProb *= 1 - trueP[n]
		}
	}

	// Deterministic Gaussian probe directions, unit-normalized.
	probeRNG := stats.NewRNG(sc.Seed ^ cfg.Seed ^ 0xC2B2AE3D27D4EB4F)
	probes := make([]tensor.Vec, cfg.Probes)
	for k := range probes {
		v := tensor.NewVec(dim)
		for i := range v {
			v[i] = probeRNG.NormFloat64()
		}
		if norm := v.Norm2(); norm > 0 {
			v.Scale(1 / norm)
		}
		probes[k] = v
	}
	rep := &Replay{
		Scenario:   sc.Name,
		Round:      cfg.Round,
		Clients:    sc.Clients,
		Active:     active,
		TrueP:      trueP,
		PricedQ:    q,
		TargetProj: make([]float64, cfg.Probes),
		FullProj:   make([]float64, cfg.Probes),
		VarProj:    make([]float64, cfg.Probes),
		ModalProj:  make([]float64, cfg.Probes),
		ConstProb:  math.Pow(patternProb, float64(cfg.Reps)),
		Samples:    make([][]float64, cfg.Probes),
	}
	for k, v := range probes {
		rep.TargetProj[k] = mustDot(v, target)
		rep.FullProj[k] = mustDot(v, full)
		rep.ModalProj[k] = mustDot(v, modal)
		rep.Samples[k] = make([]float64, 0, cfg.Reps)
	}
	for n := 0; n < sc.Clients; n++ {
		if !active[n] || q[n] <= 0 {
			continue
		}
		if pv := trueP[n] * (1 - trueP[n]); pv > 0 {
			for k, v := range probes {
				d := mustDot(v, deltas[n]) * weights[n] / q[n]
				rep.VarProj[k] += d * d * pv
			}
		}
	}

	// The replay loop: fresh willingness/availability streams per rep, the
	// exact sampler and aggregation path the engine runs, fixed deltas.
	agg := tensor.NewVec(dim)
	var updates []engine.ClientUpdate
	for r := 0; r < cfg.Reps; r++ {
		rroot := stats.NewRNG(splitmix(sc.Seed ^ cfg.Seed ^ uint64(r)*0x9E3779B97F4A7C15))
		sampler := engine.NewFaultSampler(q, w.sch, rroot.Split(), rroot.Split())
		participants := sampler.Sample(cfg.Round)
		updates = updates[:0]
		for _, n := range participants {
			if !active[n] {
				continue
			}
			updates = append(updates, engine.ClientUpdate{Client: n, Delta: deltas[n]})
		}
		agg.Zero()
		if err := cfg.Aggregator.Aggregate(agg, updates, weights, q); err != nil {
			return nil, fmt.Errorf("scenario: replay rep %d aggregate: %w", r, err)
		}
		for k, v := range probes {
			rep.Samples[k] = append(rep.Samples[k], mustDot(v, agg))
		}
	}
	return rep, nil
}

// mustDot is Dot over vectors whose lengths match by construction.
func mustDot(v, u tensor.Vec) float64 {
	s, _ := tensor.Dot(v, u)
	return s
}

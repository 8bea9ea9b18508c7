package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
)

// SweepPoint is one sweep value's result: the equilibrium economics and the
// induced model quality under the swept pricing scheme.
type SweepPoint struct {
	Value            float64 // the swept parameter's value (v̄, c̄, or B)
	FinalLoss        float64
	FinalAccuracy    float64
	ServerObj        float64
	MeanQ            float64
	NegativePayments int
}

// SweepKind selects the swept parameter.
type SweepKind int

// Swept parameters for Figs. 5–7.
const (
	// SweepV varies the mean intrinsic value v̄ (Fig. 5, Setup 1).
	SweepV SweepKind = iota + 1
	// SweepC varies the mean local cost c̄ (Fig. 6, Setup 2).
	SweepC
	// SweepB varies the server budget B (Fig. 7, Setup 3).
	SweepB
)

// String implements fmt.Stringer.
func (k SweepKind) String() string {
	switch k {
	case SweepV:
		return "mean intrinsic value v"
	case SweepC:
		return "mean local cost c"
	case SweepB:
		return "budget B"
	default:
		return fmt.Sprintf("sweep(%d)", int(k))
	}
}

// Sweep reruns the named registered pricing scheme across values of one
// parameter on a prepared environment, retraining the model at each point —
// the paper's Figs. 5–7 configuration under the proposed scheme. α stays at
// the environment's calibrated value throughout, as in the paper. Points are
// independent — each owns its perturbed game, seeds, and runners over the
// shared read-only environment — so they execute concurrently across
// GOMAXPROCS workers; the returned order and values match a sequential run
// exactly, and a non-nil obs sees SweepPointDone events in ascending index
// order. Cancelling ctx aborts promptly with ctx.Err() and no leaked
// workers.
func Sweep(
	ctx context.Context, env *Environment, scheme string, kind SweepKind,
	values []float64, obs Observer,
) ([]SweepPoint, error) {
	return sweepParallel(ctx, env, scheme, kind, values, runtime.GOMAXPROCS(0), obs)
}

// sweepParallel is Sweep with an explicit worker count (1 = sequential).
func sweepParallel(
	ctx context.Context, env *Environment, scheme string, kind SweepKind,
	values []float64, workers int, obs Observer,
) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	if len(values) == 0 {
		return nil, errors.New("experiment: empty sweep")
	}
	ps, err := game.SchemeByName(scheme)
	if err != nil {
		return nil, err
	}
	// Points run on stats.ParallelFor, whose workers already saturate the
	// CPU: each point's inner training stays sequential, to avoid nested
	// pools, unless the sweep runs one point at a time. A failed point aborts
	// the whole sweep: the result would be discarded anyway, so remaining
	// points must not burn a full retraining each.
	innerParallel := workers <= 1 || len(values) == 1
	seq := newSweepSequencer(obs)
	out := make([]SweepPoint, len(values))
	err = stats.ParallelFor(ctx, len(values), workers, func(ctx context.Context, _ *struct{}, i int) error {
		p, err := sweepPoint(ctx, env, ps, kind, i, values[i], innerParallel)
		if err != nil {
			return err
		}
		out[i] = p
		seq.done(i, SweepPointDone{Kind: kind, Index: i, Value: values[i], Point: p})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepPoint prices and retrains sweep point i, of value val. Under a
// checkpoint prefix the point's legs checkpoint under "<prefix>-point<i>", so
// that concurrent points never share a file.
func sweepPoint(
	ctx context.Context, env *Environment, ps game.PricingScheme, kind SweepKind,
	i int, val float64, innerParallel bool,
) (SweepPoint, error) {
	params, err := perturbedParams(env, kind, val)
	if err != nil {
		return SweepPoint{}, err
	}
	outcome, err := env.Price(ps, params)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("%v=%v: %w", kind, val, err)
	}
	// Train under the perturbed priced market, reusing the environment's
	// data, model, and timing. Per-round events are deliberately not
	// forwarded here: concurrent points would interleave them
	// non-deterministically, so sweeps stream SweepPointDone only.
	sub := *env
	sub.Params = params
	if prefix := env.Run.Checkpoint.Path; prefix != "" {
		sub.Run.Checkpoint.Path = fmt.Sprintf("%s-point%d", prefix, i)
	}
	run, err := runPricedParallel(ctx, &sub, ps.Name(), outcome, innerParallel, nil)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return SweepPoint{}, ctxErr
		}
		return SweepPoint{}, fmt.Errorf("%v=%v: %w", kind, val, err)
	}
	var meanQ float64
	for _, q := range outcome.Q {
		meanQ += q / float64(len(outcome.Q))
	}
	return SweepPoint{
		Value:            val,
		FinalLoss:        run.FinalLoss,
		FinalAccuracy:    run.FinalAccuracy,
		ServerObj:        outcome.ServerObj,
		MeanQ:            meanQ,
		NegativePayments: run.NegativePayments,
	}, nil
}

// EquilibriumSweep is Sweep without the training step: it reports the
// economics (server bound, mean q, negative payments) only, which is what
// Table V needs and is orders of magnitude faster. The points are
// batch-solved through the equilibrium engine (game.SolveMany): per-worker
// scratch and warm-started multiplier brackets on stats.ParallelFor,
// bit-identical to solving each point cold. A non-nil
// obs receives SweepPointDone events in ascending index order.
func EquilibriumSweep(
	ctx context.Context, env *Environment, kind SweepKind, values []float64, obs Observer,
) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env == nil {
		return nil, errors.New("experiment: nil environment")
	}
	if len(values) == 0 {
		return nil, errors.New("experiment: empty sweep")
	}
	games := make([]*game.Params, len(values))
	for i, val := range values {
		params, err := perturbedParams(env, kind, val)
		if err != nil {
			return nil, err
		}
		games[i] = params
	}
	// Solve in bounded chunks rather than one monolithic batch, so
	// observers keep receiving incremental SweepPointDone progress on
	// fleet-scale sweeps instead of one burst at the end. Chunks are solved
	// in index order, so events stay in ascending index order.
	chunk := 4 * runtime.GOMAXPROCS(0)
	if chunk < 16 {
		chunk = 16
	}
	out := make([]SweepPoint, 0, len(values))
	for start := 0; start < len(values); start += chunk {
		end := start + chunk
		if end > len(values) {
			end = len(values)
		}
		eqs, err := game.SolveMany(ctx, games[start:end], 0)
		if err != nil {
			var be *game.BatchError
			if errors.As(err, &be) {
				return nil, fmt.Errorf("%v=%v: %w", kind, values[start+be.Index], be.Err)
			}
			return nil, err
		}
		for j, eq := range eqs {
			i := start + j
			var meanQ float64
			for _, q := range eq.Q {
				meanQ += q / float64(len(eq.Q))
			}
			p := SweepPoint{
				Value:            values[i],
				ServerObj:        eq.ServerObj,
				MeanQ:            meanQ,
				NegativePayments: eq.NegativePayments(),
			}
			out = append(out, p)
			emit(obs, SweepPointDone{Kind: kind, Index: i, Value: values[i], Point: p})
		}
	}
	return out, nil
}

// perturbedParams rebuilds the game with one Table-I parameter replaced.
// The per-client heterogeneity (the exponential draws) is re-scaled rather
// than re-drawn so sweeps isolate the parameter's effect.
func perturbedParams(env *Environment, kind SweepKind, val float64) (*game.Params, error) {
	p := env.Params.Clone()
	switch kind {
	case SweepV:
		if val < 0 {
			return nil, errors.New("experiment: negative mean intrinsic value")
		}
		if env.MeanV > 0 {
			scale := val / env.MeanV
			for i := range p.V {
				p.V[i] *= scale
			}
		} else {
			r := stats.NewRNG(env.Opts.Seed ^ 0x5EED)
			v, err := stats.Exponential(r, p.N(), val)
			if err != nil {
				return nil, err
			}
			p.V = v
		}
	case SweepC:
		if val <= 0 {
			return nil, errors.New("experiment: non-positive mean cost")
		}
		scale := val / env.MeanC
		for i := range p.C {
			p.C[i] *= scale
		}
	case SweepB:
		p.B = val
	default:
		return nil, fmt.Errorf("experiment: unknown sweep kind %d", int(kind))
	}
	return p, nil
}

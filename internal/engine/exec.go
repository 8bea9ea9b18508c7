package engine

import (
	"context"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// clientExec holds one client's per-run mutable state: the private RNG and
// the gradient-norm statistics. It deliberately owns no model-sized buffers —
// those live in an execArena owned by whichever worker (or socket node) runs
// the update — so a fleet of 10^6 virtual clients costs O(fleet) scalars,
// not O(fleet·model) vectors.
//
// Both backends execute local updates through this type — LocalBackend in
// its worker pool, ClusterBackend inside each socket node — which is what
// makes a round's arithmetic identical no matter where it runs.
type clientExec struct {
	rng     *stats.RNG
	sqNorms stats.Welford
}

// execArena is the reusable model-sized scratch a worker lends to whichever
// client it is currently running: the parameter clone, the gradient buffer,
// and the model's batch buffers. One arena serves any number of clients
// sequentially; the hot path stays allocation-free once the arena is warm.
type execArena struct {
	w       tensor.Vec // working copy of the global model
	grad    tensor.Vec // gradient buffer
	scratch model.Scratch
}

// ensure sizes the arena for a model with p parameters.
func (ar *execArena) ensure(p int) {
	if len(ar.w) != p {
		ar.w = tensor.NewVec(p)
		ar.grad = tensor.NewVec(p)
	}
}

// localUpdate copies the global model into the arena and performs steps
// mini-batch SGD steps on the client's shard, recording squared gradient
// norms for G_n estimation. Models implementing model.LocalStepper run the
// fused step; otherwise the generic StochasticGradient + axpy path applies.
// The delta w − global is written into the caller-provided buffer (sized
// like global). In steady state (arena warm) the update performs no heap
// allocations.
func (st *clientExec) localUpdate(
	ctx context.Context, m model.Model, shard *data.Dataset, n int,
	global tensor.Vec, steps, batch int, lr float64,
	ar *execArena, delta tensor.Vec,
) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ar.ensure(len(global))
	w := ar.w
	copy(w, global)
	stepper, hasStep := m.(model.LocalStepper)
	for e := 0; e < steps; e++ {
		// Re-check cancellation every few steps so paper-scale E (100 local
		// steps) still cancels mid-update, without putting the ctx mutex on
		// every step of the hot path.
		if e&7 == 7 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if hasStep {
			sq, err := stepper.SGDStep(w, shard, batch, lr, st.rng, &ar.scratch)
			if err != nil {
				return fmt.Errorf("client %d: %w", n, err)
			}
			st.sqNorms.Add(sq)
			continue
		}
		grad := ar.grad
		if err := m.StochasticGradient(w, shard, batch, st.rng, grad); err != nil {
			return fmt.Errorf("client %d: %w", n, err)
		}
		st.sqNorms.Add(grad.SqNorm())
		if err := w.AddScaled(-lr, grad); err != nil {
			return err
		}
	}
	if len(delta) != len(global) {
		return fmt.Errorf("client %d: delta buffer length %d, want %d", n, len(delta), len(global))
	}
	for j := range delta {
		delta[j] = w[j] - global[j]
	}
	return nil
}

// newClientExecs derives one executor per client from the spec seed,
// client n's RNG being the n-th Split — the stream discipline every
// backend must share for cross-backend bit-identity.
func newClientExecs(seed uint64, nClients int) []*clientExec {
	cursors := initialCursors(seed, nClients)
	states := make([]*clientExec, nClients)
	for n := range states {
		st, err := newClientExecAt(cursors[n])
		if err != nil {
			// initialCursors never produces an invalid cursor; a failure here
			// is a programming error, not an input error.
			panic(err)
		}
		states[n] = st
	}
	return states
}

// initialCursors is the cursor form of newClientExecs' stream derivation:
// client n's fresh cursor is the state of the n-th Split of the spec seed.
// Both backends — and the resume path — share this single definition, so a
// round-zero cursor table is indistinguishable from a fresh boot.
func initialCursors(seed uint64, nClients int) []ClientCursor {
	root := stats.NewRNG(seed)
	cursors := make([]ClientCursor, nClients)
	for n := range cursors {
		cursors[n] = ClientCursor{RNG: root.Split().State()}
	}
	return cursors
}

// cursor captures the executor's resumable state. Valid only at a round
// boundary, when no update is in flight on this executor.
func (st *clientExec) cursor() ClientCursor {
	count, mean, m2 := st.sqNorms.State()
	return ClientCursor{RNG: st.rng.State(), SqCount: count, SqMean: mean, SqM2: m2}
}

// newClientExecAt builds an executor positioned at a captured cursor.
func newClientExecAt(c ClientCursor) (*clientExec, error) {
	st := &clientExec{rng: new(stats.RNG)}
	if err := st.restore(c); err != nil {
		return nil, err
	}
	return st, nil
}

// restore repositions the executor in place at a captured cursor,
// overwriting every field the cursor carries: a group node runs each tasked
// member of a batch through one executor this way, and nothing of the
// previous member survives. On error the executor must not be used.
func (st *clientExec) restore(c ClientCursor) error {
	if err := st.rng.Restore(c.RNG); err != nil {
		return err
	}
	sq, err := stats.RestoreWelford(c.SqCount, c.SqMean, c.SqM2)
	if err != nil {
		return err
	}
	st.sqNorms = sq
	return nil
}

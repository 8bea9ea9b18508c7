package engine

import (
	"context"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// clientExec holds one client's per-run mutable state: the private RNG,
// whose state is the client's cursor. It deliberately owns no model-sized
// buffers — those live in an execArena owned by whichever worker (or socket
// node) runs the update — so a fleet of 10^6 virtual clients costs O(fleet)
// scalars, not O(fleet·model) vectors.
//
// Both backends execute local updates through this type — LocalBackend in
// its worker pool, ClusterBackend inside each socket node — which is what
// makes a round's arithmetic identical no matter where it runs.
type clientExec struct {
	rng *stats.RNG
}

// execArena is the reusable model-sized scratch a worker lends to whichever
// client it is currently running: the parameter clone and the model's batch
// buffers. One arena serves any number of clients sequentially; the hot path
// stays allocation-free once the arena is warm.
type execArena struct {
	w       tensor.Vec // working copy of the global model
	scratch model.Scratch
}

// ensure sizes the arena for a model with p parameters.
func (ar *execArena) ensure(p int) {
	if len(ar.w) != p {
		ar.w = tensor.NewVec(p)
	}
}

// train copies the global model into the arena and performs steps mini-batch
// SGD steps (the model's Step) on the client's shard. The parameters are left
// in ar.w: a grouped executor folds them against global directly
// (FixAcc.AddScaledDiff), the flat path writes the delta with localUpdate.
// In steady state (arena warm) it performs no heap allocations.
func (st *clientExec) train(
	ctx context.Context, m model.Model, shard *data.Dataset, n int,
	global tensor.Vec, steps, batch int, lr float64, ar *execArena,
) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ar.ensure(len(global))
	w := ar.w
	copy(w, global)
	for e := 0; e < steps; e++ {
		// Re-check cancellation every few steps so paper-scale E (100 local
		// steps) still cancels mid-update, without putting the ctx mutex on
		// every step of the hot path.
		if e&7 == 7 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := m.Step(w, shard, batch, lr, st.rng, &ar.scratch); err != nil {
			return fmt.Errorf("client %d: %w", n, err)
		}
	}
	return nil
}

// localUpdate is the flat path's update: train, then write the delta
// w − global into the caller-provided buffer (sized like global), where it
// travels to the coordinator-side aggregator.
func (st *clientExec) localUpdate(
	ctx context.Context, m model.Model, shard *data.Dataset, n int,
	global tensor.Vec, steps, batch int, lr float64,
	ar *execArena, delta tensor.Vec,
) error {
	if len(delta) != len(global) {
		return fmt.Errorf("client %d: delta buffer length %d, want %d", n, len(delta), len(global))
	}
	if err := st.train(ctx, m, shard, n, global, steps, batch, lr, ar); err != nil {
		return err
	}
	for j, w := range ar.w {
		delta[j] = w - global[j]
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
	return ClientCursor{RNG: st.rng.State()}
}

// newClientExecAt builds an executor positioned at a captured cursor.
func newClientExecAt(c ClientCursor) (*clientExec, error) {
	rng, err := stats.RestoreRNG(c.RNG)
	if err != nil {
		return nil, err
	}
	return &clientExec{rng: rng}, nil
}

package engine

import (
	"context"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// execArena is the reusable scratch a worker lends to whichever client it is
// currently running: the RNG the client's cursor is restored into, the
// parameter clone and the model's batch buffers. A client itself is only its
// ClientCursor — 32 B in a backend's cursor table, in a batch, or in a
// per-client node — so a fleet of 10^6 virtual clients costs O(fleet)
// scalars, not O(fleet·model) vectors. One arena serves any number of
// clients sequentially; the hot path stays allocation-free once the arena is
// warm.
//
// Both backends execute local updates through this type — LocalBackend in
// its workers, ClusterBackend inside each socket node — which is what makes
// a round's arithmetic identical no matter where it runs.
type execArena struct {
	rng     stats.RNG
	w       tensor.Vec // working copy of the global model
	scratch model.Scratch
}

// train restores the arena's RNG at client n's cursor *c, copies the global
// model into the arena and performs steps mini-batch SGD steps (the model's
// Step) on the client's shard, then writes the advanced stream back to *c.
// The parameters are left in ar.w: a grouped executor folds them against
// global directly (fixpoint.(*Acc).AddScaledDiff), the flat path writes the
// delta with localUpdate. On an error *c is left as it was. In steady state
// (arena warm) it performs no heap allocations.
func (ar *execArena) train(
	ctx context.Context, m model.Model, shard *data.Dataset, n int, c *ClientCursor,
	global tensor.Vec, steps, batch int, lr float64,
) error {
	if err := canceled(ctx); err != nil {
		return err
	}
	if err := ar.rng.Restore(c.RNG); err != nil {
		return fmt.Errorf("client %d cursor: %w", n, err)
	}
	if len(ar.w) != len(global) {
		ar.w = tensor.NewVec(len(global))
	}
	w := ar.w
	copy(w, global)
	for e := 0; e < steps; e++ {
		// Re-check cancellation every few steps so paper-scale E (100 local
		// steps) still cancels mid-update.
		if e&7 == 7 {
			if err := canceled(ctx); err != nil {
				return err
			}
		}
		if err := m.Step(w, shard, batch, lr, &ar.rng, &ar.scratch); err != nil {
			return fmt.Errorf("client %d: %w", n, err)
		}
	}
	c.RNG = ar.rng.State()
	return nil
}

// canceled returns ctx.Err() once ctx is done, and nil before. It polls
// Done without blocking: on a cancelable context that is an atomic load,
// where Err takes the context's mutex, a lock whose cache line the worker
// threads of a node, and the nodes beside it, would otherwise pass around
// once per client.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// localUpdate is the flat path's update: train, then write the delta
// w − global into the caller-provided buffer (sized like global), where it
// travels to the coordinator-side aggregator.
func (ar *execArena) localUpdate(
	ctx context.Context, m model.Model, shard *data.Dataset, n int, c *ClientCursor,
	global tensor.Vec, steps, batch int, lr float64, delta tensor.Vec,
) error {
	if len(delta) != len(global) {
		return fmt.Errorf("client %d: delta buffer length %d, want %d", n, len(delta), len(global))
	}
	if err := ar.train(ctx, m, shard, n, c, global, steps, batch, lr); err != nil {
		return err
	}
	for j, w := range ar.w {
		delta[j] = w - global[j]
	}
	return nil
}

// initialCursors derives every client's fresh cursor from the spec seed:
// client n's is the state of the n-th Split — the stream discipline every
// backend must share for cross-backend bit-identity. Both backends — and the
// resume path — share this single definition, so a round-zero cursor table
// is indistinguishable from a fresh boot. Each state is written in place
// (SplitState); no child generator is allocated.
func initialCursors(seed uint64, nClients int) []ClientCursor {
	root := stats.NewRNG(seed)
	cursors := make([]ClientCursor, nClients)
	for n := range cursors {
		cursors[n].RNG = root.SplitState()
	}
	return cursors
}

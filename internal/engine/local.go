package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"unbiasedfl/internal/fixpoint"
	"unbiasedfl/internal/tensor"
)

// LocalOptions tunes the in-process backend.
type LocalOptions struct {
	// Parallel enables concurrent local updates across participants via a
	// persistent worker pool sized to GOMAXPROCS, capped to the fleet.
	// Results are identical either way: every client's stream is its own
	// cursor, each worker owns a private scratch arena, and the fixed-point
	// aggregation makes the sum independent of scheduling.
	Parallel bool
}

// LocalBackend executes local updates in-process. Per-client state is one
// 32-B cursor in a table the backend owns, as the cluster's coordinator
// does — O(fleet) scalars — while all model-sized scratch belongs to the
// workers (O(workers·model)), so fleets of 10^6 virtual clients fit in
// memory. Flat dispatch additionally buffers one delta per participant for
// the coordinator-side aggregator; hierarchical dispatch (DispatchPartials)
// folds each member straight from its trained parameters and the global
// model, writes no delta, and keeps memory at O(workers·model) regardless of
// fleet size.
type LocalBackend struct {
	opts LocalOptions
	spec *Spec
	// cursors is every client's executor state, indexed by client id:
	// staged by RestoreClientCursors before Open, else derived from the spec
	// seed at Open. A unit trains its clients at their cursors and writes the
	// advanced streams back.
	cursors []ClientCursor
	pool    *updatePool
	// serial is the scratch worker of the inline path.
	serial poolWorker

	// Per-round buffers, reused so steady-state dispatch does not allocate:
	// the round's units and their errors, and the flat path's updates.
	groups   []taskGroup
	errs     []error
	updates  []ClientUpdate
	deltaBuf tensor.Vec

	// Per-round context: written before the units run, read-only while they
	// do. sink is nil on a flat round.
	ctx     context.Context
	global  tensor.Vec
	tasks   []ClientTask
	sink    func(Partial) error
	sinkMu  sync.Mutex
	sinkErr error
}

// taskGroup is one unit of a round: the task list's slice tasks[lo:hi], all
// belonging to group id — a client on a flat round, a sub-aggregator group
// on a hierarchical one.
type taskGroup struct{ id, lo, hi int }

// poolWorker is one worker's private execution state: the scratch arena, the
// group accumulator, and the participant bookkeeping of the group it is
// currently folding.
type poolWorker struct {
	arena   execArena
	acc     *fixpoint.Acc
	clients []int
}

// NewLocalBackend constructs an unopened in-process backend.
func NewLocalBackend(opts LocalOptions) *LocalBackend {
	return &LocalBackend{opts: opts}
}

// Open implements ExecutionBackend: it fills the cursor table, unless
// RestoreClientCursors staged one, and starts the worker pool.
func (b *LocalBackend) Open(_ context.Context, spec *Spec) error {
	if b.spec != nil {
		return errors.New("engine: local backend already open")
	}
	nClients := spec.Fed.NumClients()
	switch {
	case b.cursors == nil:
		b.cursors = initialCursors(spec.Seed, nClients)
	case len(b.cursors) != nClients:
		return fmt.Errorf("engine: %d resume cursors for a %d-client fleet", len(b.cursors), nClients)
	}
	b.spec = spec
	if b.opts.Parallel {
		b.pool = newUpdatePool(b, max(min(runtime.GOMAXPROCS(0), nClients), 1))
	}
	return nil
}

// Dispatch implements ExecutionBackend (flat mode): a round of one unit per
// task. Updates are filled in task order; each participant's delta occupies
// its own slice of a per-round buffer so it stays valid until the next
// Dispatch.
func (b *LocalBackend) Dispatch(
	ctx context.Context, _ int, global tensor.Vec, tasks []ClientTask,
) ([]ClientUpdate, error) {
	if b.spec == nil {
		return nil, errors.New("engine: local backend not open")
	}
	if cap(b.updates) < len(tasks) {
		b.updates = make([]ClientUpdate, len(tasks))
	}
	if need := len(tasks) * len(global); cap(b.deltaBuf) < need {
		b.deltaBuf = tensor.NewVec(need)
	}
	if err := b.round(ctx, global, tasks, 1, nil); err != nil {
		return nil, err
	}
	return b.updates[:len(tasks)], nil
}

// DispatchPartials implements PartialBackend: a round of one unit per
// non-empty group of contiguous client indices. Each member's update is
// folded into its group's fixed-point partial straight from the worker's
// arena — fl(Scale·fl(Factor·(w − global))), no delta written — and one
// Partial per group is delivered to sink. Sink calls are serialized, and
// the first error sink returns stops further partials from reaching it.
// Round memory is O(workers·model) independent of fleet size.
func (b *LocalBackend) DispatchPartials(
	ctx context.Context, _ int, global tensor.Vec, tasks []ClientTask,
	groupSize int, sink func(Partial) error,
) error {
	if b.spec == nil {
		return errors.New("engine: local backend not open")
	}
	if groupSize < 1 {
		return fmt.Errorf("engine: invalid group size %d", groupSize)
	}
	return b.round(ctx, global, tasks, groupSize, sink)
}

// round is the one round loop of both dispatch shapes. It splits tasks into
// b.groups, its units — groups of size 1 on a flat round — and runs each
// through unit: inline when there is no pool or only one unit, stopping at
// the first error, else on the pool. It returns the lowest-index unit
// error, else the sink's.
func (b *LocalBackend) round(
	ctx context.Context, global tensor.Vec, tasks []ClientTask,
	groupSize int, sink func(Partial) error,
) error {
	b.groups = splitGroups(b.groups[:0], tasks, groupSize)
	n := len(b.groups)
	if cap(b.errs) < n {
		b.errs = make([]error, n)
	}
	b.errs = b.errs[:n]
	clear(b.errs)
	b.ctx, b.global, b.tasks, b.sink, b.sinkErr = ctx, global, tasks, sink, nil
	if b.pool == nil || n < 2 {
		for i := range n {
			if b.unit(&b.serial, i); b.errs[i] != nil || b.sinkErr != nil {
				break
			}
		}
	} else {
		b.pool.run(n)
	}
	b.ctx, b.global, b.tasks, b.sink = nil, nil, nil, nil
	for _, err := range b.errs {
		if err != nil {
			return err
		}
	}
	return b.sinkErr
}

// unit runs the round's unit i on worker w: a flat unit writes each task's
// delta into the task's slot of the round's delta buffer, a grouped one
// folds its group and hands the partial to the sink under the sink lock. A
// failure is recorded in b.errs[i].
func (b *LocalBackend) unit(w *poolWorker, i int) {
	g, spec, p := b.groups[i], b.spec, len(b.global)
	if b.sink == nil {
		for t := g.lo; t < g.hi; t++ {
			task, delta := b.tasks[t], b.deltaBuf[t*p:(t+1)*p]
			if err := w.arena.localUpdate(
				b.ctx, spec.Model, spec.Fed.Clients[task.Client], task.Client, &b.cursors[task.Client],
				b.global, spec.LocalSteps, spec.BatchSize, task.LR, delta,
			); err != nil {
				b.errs[i] = err
				return
			}
			b.updates[t] = ClientUpdate{Client: task.Client, Delta: delta}
		}
		return
	}
	part, err := b.foldGroup(w, g)
	if err != nil {
		b.errs[i] = err
		return
	}
	b.sinkMu.Lock()
	defer b.sinkMu.Unlock()
	if b.sinkErr == nil {
		b.sinkErr = b.sink(part)
	}
}

// splitGroups splits the (ascending-by-client) task list into contiguous
// groups of client indices [g·K, (g+1)·K), appending to dst. Both backends
// partition a round's tasks through this single definition.
func splitGroups(dst []taskGroup, tasks []ClientTask, groupSize int) []taskGroup {
	for i := 0; i < len(tasks); {
		gid := tasks[i].Client / groupSize
		j := i + 1
		for j < len(tasks) && tasks[j].Client/groupSize == gid {
			j++
		}
		dst = append(dst, taskGroup{id: gid, lo: i, hi: j})
		i = j
	}
	return dst
}

// foldGroup trains one group's tasks in the worker's arena and folds each
// member's weighted, factored update into the worker's accumulator. The
// returned Partial's slices alias the worker's buffers: consume before the
// worker's next group.
func (b *LocalBackend) foldGroup(w *poolWorker, g taskGroup) (Partial, error) {
	global, spec := b.global, b.spec
	if w.acc == nil || w.acc.Len() != len(global) {
		w.acc = fixpoint.New(len(global))
	} else {
		w.acc.Reset()
	}
	w.clients = w.clients[:0]
	for _, task := range b.tasks[g.lo:g.hi] {
		n := task.Client
		if err := w.arena.train(
			b.ctx, spec.Model, spec.Fed.Clients[n], n, &b.cursors[n],
			global, spec.LocalSteps, spec.BatchSize, task.LR,
		); err != nil {
			return Partial{}, err
		}
		if err := w.acc.AddScaledDiff(task.Scale, task.Factor, w.arena.w, global); err != nil {
			return Partial{}, err
		}
		w.clients = append(w.clients, n)
	}
	lo, hi, sat := w.acc.Limbs()
	return Partial{Group: g.id, Clients: w.clients, Lo: lo, Hi: hi, Sat: sat}, nil
}

// Close implements ExecutionBackend: it shuts down the worker pool and
// drops the cursor table.
func (b *LocalBackend) Close() error {
	if b.pool != nil {
		b.pool.close()
		b.pool = nil
	}
	b.spec = nil
	b.cursors = nil
	return nil
}

// RestoreClientCursors implements StatefulBackend: it stages the cursor
// table Open will run from.
func (b *LocalBackend) RestoreClientCursors(cursors []ClientCursor) error {
	if b.spec != nil {
		return errors.New("engine: restore on an open backend")
	}
	b.cursors = append([]ClientCursor(nil), cursors...)
	return nil
}

// ClientCursors implements StatefulBackend. Only valid between Dispatch
// calls, when no worker touches the table.
func (b *LocalBackend) ClientCursors(dst []ClientCursor) error {
	if b.spec == nil {
		return errors.New("engine: local backend not open")
	}
	if len(dst) != len(b.cursors) {
		return fmt.Errorf("engine: cursor buffer of %d for a %d-client fleet", len(dst), len(b.cursors))
	}
	copy(dst, b.cursors)
	return nil
}

// updatePool is the persistent worker pool behind parallel local dispatch.
// Its goroutines live for the whole run — one per available CPU — instead of
// spawning a goroutine per participant per round: at fleet scale that is the
// difference between GOMAXPROCS workers and a million goroutines. Each
// worker keeps its poolWorker, so arenas and accumulators warm up once.
type updatePool struct {
	b    *LocalBackend
	jobs chan int
	wg   sync.WaitGroup
}

func newUpdatePool(b *LocalBackend, workers int) *updatePool {
	p := &updatePool{b: b, jobs: make(chan int, workers)}
	for k := 0; k < workers; k++ {
		go func() {
			w := &poolWorker{}
			for i := range p.jobs {
				p.b.unit(w, i)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run runs the round's units 0..n-1 on the workers and returns when all have
// finished. The round context is published before the indices are sent on
// the channel (the send is the happens-before edge), and the WaitGroup
// barrier publishes the units' results back.
func (p *updatePool) run(n int) {
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- i
	}
	p.wg.Wait()
}

func (p *updatePool) close() { close(p.jobs) }

var (
	_ ExecutionBackend = (*LocalBackend)(nil)
	_ PartialBackend   = (*LocalBackend)(nil)
	_ StatefulBackend  = (*LocalBackend)(nil)
)

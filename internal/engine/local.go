package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"unbiasedfl/internal/tensor"
)

// LocalOptions tunes the in-process backend.
type LocalOptions struct {
	// Parallel enables concurrent local updates across participants via a
	// persistent worker pool sized to GOMAXPROCS, capped to the fleet.
	// Results are identical either way: every client owns a private RNG,
	// each worker owns a private scratch arena, and the fixed-point
	// aggregation makes the sum independent of scheduling.
	Parallel bool
}

// LocalBackend executes local updates in-process. Per-client state is two
// RNG/statistics streams — O(fleet) scalars — while all model-sized scratch
// belongs to the workers (O(workers·model)), so fleets of 10^6 virtual
// clients fit in memory. Flat dispatch additionally buffers one delta per
// participant for the coordinator-side aggregator; hierarchical dispatch
// (DispatchPartials) folds each member straight from its trained parameters
// and the global model, writes no delta, and keeps memory at O(workers·model)
// regardless of fleet size.
type LocalBackend struct {
	opts   LocalOptions
	spec   *Spec
	states []*clientExec
	pool   *updatePool
	// serial is the scratch worker for the no-pool (or tiny-round) path.
	serial poolWorker
	// resume, when set before Open, positions every client executor at the
	// given cursor instead of deriving fresh streams from the spec seed.
	resume []ClientCursor

	// Per-round buffers, reused so steady-state dispatch does not allocate.
	updates  []ClientUpdate
	errs     []error
	deltaBuf tensor.Vec
	groups   []taskGroup
}

// taskGroup is one sub-aggregator group's slice of the round's task list:
// tasks[lo:hi], all belonging to group id.
type taskGroup struct{ id, lo, hi int }

// poolWorker is one worker's private execution state: the scratch arena, the
// group accumulator, and the participant bookkeeping of the group it is
// currently folding.
type poolWorker struct {
	arena   execArena
	acc     *FixAcc
	clients []int
}

// NewLocalBackend constructs an unopened in-process backend.
func NewLocalBackend(opts LocalOptions) *LocalBackend {
	return &LocalBackend{opts: opts}
}

// Open implements ExecutionBackend: it derives the per-client executors from
// the spec seed and starts the worker pool.
func (b *LocalBackend) Open(_ context.Context, spec *Spec) error {
	if b.spec != nil {
		return errors.New("engine: local backend already open")
	}
	b.spec = spec
	nClients := spec.Fed.NumClients()
	if b.resume != nil {
		if len(b.resume) != nClients {
			return fmt.Errorf("engine: %d resume cursors for a %d-client fleet", len(b.resume), nClients)
		}
		b.states = make([]*clientExec, nClients)
		for n := range b.states {
			st, err := newClientExecAt(b.resume[n])
			if err != nil {
				return fmt.Errorf("engine: client %d cursor: %w", n, err)
			}
			b.states[n] = st
		}
	} else {
		b.states = newClientExecs(spec.Seed, nClients)
	}
	if b.opts.Parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > nClients {
			workers = nClients
		}
		b.pool = newUpdatePool(b, workers)
	}
	return nil
}

// Dispatch implements ExecutionBackend (flat mode). Updates are filled in
// task order; each participant's delta occupies its own slice of a
// per-round buffer so it stays valid until the next Dispatch.
func (b *LocalBackend) Dispatch(
	ctx context.Context, _ int, global tensor.Vec, tasks []ClientTask,
) ([]ClientUpdate, error) {
	if b.spec == nil {
		return nil, errors.New("engine: local backend not open")
	}
	if cap(b.updates) < len(tasks) {
		b.updates = make([]ClientUpdate, len(tasks))
		b.errs = make([]error, len(tasks))
	}
	p := len(global)
	if need := len(tasks) * p; cap(b.deltaBuf) < need {
		b.deltaBuf = tensor.NewVec(need)
	}
	updates := b.updates[:len(tasks)]
	errs := b.errs[:len(tasks)]
	for i := range errs {
		errs[i] = nil
	}

	if b.pool == nil || len(tasks) < 2 {
		for i, task := range tasks {
			if err := b.runTask(ctx, &b.serial.arena, global, task, b.taskDelta(i, p), &updates[i]); err != nil {
				return nil, err
			}
		}
		return updates, nil
	}
	if err := b.pool.round(ctx, global, tasks, updates, errs); err != nil {
		return nil, err
	}
	return updates, nil
}

// taskDelta returns task i's slot in the per-round delta buffer.
func (b *LocalBackend) taskDelta(i, p int) tensor.Vec {
	return b.deltaBuf[i*p : (i+1)*p]
}

// runTask executes one client's local update into out, writing the delta
// into the provided buffer.
func (b *LocalBackend) runTask(
	ctx context.Context, ar *execArena, global tensor.Vec,
	task ClientTask, delta tensor.Vec, out *ClientUpdate,
) error {
	st := b.states[task.Client]
	if err := st.localUpdate(
		ctx, b.spec.Model, b.spec.Fed.Clients[task.Client], task.Client,
		global, b.spec.LocalSteps, b.spec.BatchSize, task.LR, b.spec.GradNorms, ar, delta,
	); err != nil {
		return err
	}
	out.Client = task.Client
	out.Delta = delta
	out.GradSqNorm = st.sqNorms.Mean()
	return nil
}

// DispatchPartials implements PartialBackend: tasks are partitioned into
// contiguous client-index groups, each member's update is folded into its
// group's fixed-point partial straight from the worker's arena —
// fl(Scale·fl(Factor·(w − global))), no delta written — and one Partial per
// group is delivered to sink. Round memory is O(workers·model) independent
// of fleet size.
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
	b.groups = splitGroups(b.groups[:0], tasks, groupSize)
	if b.pool == nil || len(b.groups) < 2 {
		for _, g := range b.groups {
			part, err := b.foldGroup(ctx, global, tasks[g.lo:g.hi], g.id, &b.serial)
			if err != nil {
				return err
			}
			if err := sink(part); err != nil {
				return err
			}
		}
		return nil
	}
	return b.pool.roundPartials(ctx, global, tasks, sink)
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
func (b *LocalBackend) foldGroup(
	ctx context.Context, global tensor.Vec,
	gtasks []ClientTask, groupID int, w *poolWorker,
) (Partial, error) {
	p := len(global)
	if w.acc == nil || w.acc.Len() != p {
		w.acc = NewFixAcc(p)
	} else {
		w.acc.Reset()
	}
	w.clients = w.clients[:0]
	spec := b.spec
	for _, task := range gtasks {
		// No norms: Spec.Validate refuses GradNorms with GroupSize > 1.
		if err := b.states[task.Client].train(
			ctx, spec.Model, spec.Fed.Clients[task.Client], task.Client,
			global, spec.LocalSteps, spec.BatchSize, task.LR, false, &w.arena,
		); err != nil {
			return Partial{}, err
		}
		if err := w.acc.AddScaledDiff(task.Scale, task.Factor, w.arena.w, global); err != nil {
			return Partial{}, err
		}
		w.clients = append(w.clients, task.Client)
	}
	lo, hi, sat := w.acc.Limbs()
	return Partial{Group: groupID, Clients: w.clients, Lo: lo, Hi: hi, Sat: sat}, nil
}

// Close implements ExecutionBackend: it shuts down the worker pool.
func (b *LocalBackend) Close() error {
	if b.pool != nil {
		b.pool.close()
		b.pool = nil
	}
	b.spec = nil
	return nil
}

// RestoreClientCursors implements StatefulBackend: Open will build every
// executor at the given cursor.
func (b *LocalBackend) RestoreClientCursors(cursors []ClientCursor) error {
	if b.spec != nil {
		return errors.New("engine: restore on an open backend")
	}
	b.resume = append([]ClientCursor(nil), cursors...)
	return nil
}

// ClientCursors implements StatefulBackend. Only valid between Dispatch
// calls, when no worker touches the executors.
func (b *LocalBackend) ClientCursors(dst []ClientCursor) error {
	if b.spec == nil {
		return errors.New("engine: local backend not open")
	}
	if len(dst) != len(b.states) {
		return fmt.Errorf("engine: cursor buffer of %d for a %d-client fleet", len(dst), len(b.states))
	}
	for n, st := range b.states {
		dst[n] = st.cursor()
	}
	return nil
}

var _ StatefulBackend = (*LocalBackend)(nil)

// updatePool is the persistent worker pool behind parallel local dispatch.
// Its goroutines live for the whole run — one per available CPU — instead of
// spawning a goroutine per participant per round: at fleet scale that is the
// difference between GOMAXPROCS workers and a million goroutines. Round
// context is published before the job indices are sent on the channel (the
// send is the happens-before edge), and the WaitGroup barrier ends the
// round. Jobs are task indices in flat rounds and group indices in
// hierarchical rounds.
type updatePool struct {
	b    *LocalBackend
	jobs chan int
	wg   sync.WaitGroup

	// Per-round context: written by the orchestration goroutine before
	// dispatch, read-only while workers run.
	ctx     context.Context
	global  tensor.Vec
	tasks   []ClientTask
	updates []ClientUpdate
	errs    []error

	// Hierarchical-round context.
	hier    bool
	sink    func(Partial) error
	sinkMu  sync.Mutex
	sinkErr error
}

func newUpdatePool(b *LocalBackend, workers int) *updatePool {
	if workers < 1 {
		workers = 1
	}
	p := &updatePool{b: b, jobs: make(chan int, workers)}
	for k := 0; k < workers; k++ {
		go p.worker()
	}
	return p
}

func (p *updatePool) worker() {
	// Worker-private state persists across rounds for the life of the pool:
	// the arena and accumulator warm up once.
	w := &poolWorker{}
	for i := range p.jobs {
		if p.hier {
			p.runGroupJob(w, i)
		} else {
			pn := len(p.global)
			delta := p.b.taskDelta(i, pn)
			if err := p.b.runTask(p.ctx, &w.arena, p.global, p.tasks[i], delta, &p.updates[i]); err != nil {
				p.errs[i] = err
			}
		}
		p.wg.Done()
	}
}

// runGroupJob folds group i and delivers its partial under the sink lock.
func (p *updatePool) runGroupJob(w *poolWorker, i int) {
	g := p.b.groups[i]
	part, err := p.b.foldGroup(p.ctx, p.global, p.tasks[g.lo:g.hi], g.id, w)
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	if p.sinkErr != nil {
		return
	}
	if err != nil {
		p.sinkErr = err
		return
	}
	p.sinkErr = p.sink(part)
}

func (p *updatePool) close() { close(p.jobs) }

// round runs one flat round's tasks through the pool, filling updates[i]
// for task i.
func (p *updatePool) round(
	ctx context.Context, global tensor.Vec, tasks []ClientTask,
	updates []ClientUpdate, errs []error,
) error {
	p.ctx = ctx
	p.global = global
	p.tasks = tasks
	p.updates, p.errs = updates, errs
	p.hier = false
	p.wg.Add(len(tasks))
	for i := range tasks {
		p.jobs <- i
	}
	p.wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// roundPartials runs one hierarchical round: each job is one group from
// b.groups, folded by a worker and streamed to sink under the pool's lock.
func (p *updatePool) roundPartials(
	ctx context.Context, global tensor.Vec, tasks []ClientTask,
	sink func(Partial) error,
) error {
	p.ctx = ctx
	p.global = global
	p.tasks = tasks
	p.hier = true
	p.sink = sink
	p.sinkErr = nil
	p.wg.Add(len(p.b.groups))
	for i := range p.b.groups {
		p.jobs <- i
	}
	p.wg.Wait()
	p.hier = false
	p.sink = nil
	return p.sinkErr
}

var (
	_ ExecutionBackend = (*LocalBackend)(nil)
	_ PartialBackend   = (*LocalBackend)(nil)
)

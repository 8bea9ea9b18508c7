package engine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/transport"
)

// DefaultNodeRetry is the dial policy a healing cluster uses to revive a
// failed node: a handful of quick attempts with capped backoff, sized so a
// reconnect completes well inside a typical round deadline.
var DefaultNodeRetry = transport.RetryPolicy{
	Attempts: 8,
	Base:     25 * time.Millisecond,
	Max:      500 * time.Millisecond,
}

// DefaultMaxRespawns bounds how many times one node is revived over a run.
const DefaultMaxRespawns = 8

// errNodeDown marks a dispatch to a client whose node is currently dead
// (crashed earlier and not yet re-registered).
var errNodeDown = errors.New("engine: node down")

// ClusterOptions tunes the multi-node TCP backend.
type ClusterOptions struct {
	// Addr is the coordinator's listen address. Left empty, the backend
	// listens on an ephemeral loopback port and spawns the fleet itself: one
	// in-process node per client (or per group). Set explicitly, it listens
	// there and spawns nothing — the devices are other processes running
	// ServeNode. Open waits for them to dial in; a device the coordinator
	// severed is never respawned (the coordinator does not own it), and one
	// that redials is re-welcomed at its authoritative cursor.
	Addr string
	// Timeout bounds every coordinator-side socket operation (default 30s).
	Timeout time.Duration
	// HandshakeTimeout bounds each node's version handshake + hello on the
	// accept path (0 = transport.DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// NodeDelay, when non-nil, returns a real wall-clock stall a node
	// applies before computing each dispatched update — straggler realism
	// at the socket layer. It changes reply arrival order and wall time,
	// never the result: aggregation order is fixed by the orchestrator.
	NodeDelay func(client int) time.Duration
	// RoundTimeout, when positive, switches the backend into self-healing
	// mode: every dispatch runs under this deadline, a node that crashes,
	// disconnects, or misses the deadline forfeits the round (it is simply
	// recorded as unavailable — the regime the unbiased aggregation rule
	// already prices in) and is revived in the background with
	// exponential-backoff redial. Zero keeps the strict historical
	// behaviour: any node failure fails the round.
	RoundTimeout time.Duration
	// NodeFault, when non-nil, is consulted by every node at each round
	// start — the crash/hang injection seam the self-healing tests drive.
	// Crash severs the node's connection mid-round; Delay stalls it (a hung
	// peer when the delay exceeds RoundTimeout). Like NodeDelay it reaches
	// only the nodes the backend spawns itself.
	NodeFault func(client, round int) transport.RoundFault
	// Retry tunes node dialing, both at boot and when a healing cluster
	// revives a dead node (zero value: DefaultNodeRetry).
	Retry transport.RetryPolicy
}

// healing reports whether self-healing mode is on.
func (o ClusterOptions) healing() bool { return o.RoundTimeout > 0 }

// clusterSlot is the coordinator's view of one node: the live connection
// (when ready) and the cancel handle of the node goroutine currently
// responsible for this client. All fields are guarded by ClusterBackend.mu;
// the codec is used outside the lock only by its single current owner (the
// dispatch goroutine of a ready slot, or the registration path of a
// not-ready one).
type clusterSlot struct {
	codec  *transport.Codec
	conn   net.Conn
	ready  bool
	cancel context.CancelFunc
	// pending marks a revival in flight, so one dead node does not spawn a
	// second dialer every round it stays down.
	pending bool
	// gen counts node goroutines spawned for this slot; an exiting
	// goroutine only clears pending if it is still the current generation.
	gen int
	// parked holds a prospective member's connection: a node that sent
	// MsgJoin before its membership epoch. It is welcomed — handed its
	// cursor and marked ready — at the epoch boundary (ApplyEpoch), which is
	// the only moment a roster may change.
	parked   *transport.Codec
	parkConn net.Conn
}

// ClusterBackend executes local updates as a real multi-node federation: a
// TCP coordinator plus one socket node per client, speaking the versioned
// framed protocol of internal/transport. The nodes all run ServeNode —
// spawned in-process on loopback by default, or dialing in from other
// processes when ClusterOptions.Addr is set (cmd/flnode).
//
// Participation is decided centrally by the orchestrator: a round start is
// itself the invitation, so a node never draws willingness coins. Each node
// owns the same clientExec — the training step, private RNG as the n-th
// Split of the spec seed — that LocalBackend uses in-process, and the wire
// carries float64 slices as their bits, so a cluster run's trace is
// byte-identical to the local backend's.
//
// The coordinator's cursor table is the single source of truth for every
// client's executor state: a node reports its post-update cursor inside
// each MsgUpdate, and receives its position inside MsgWelcome — so a fresh
// boot, a checkpoint resume, and a mid-run reconnect are the same protocol,
// and whatever divergent state a crashed node held is discarded with it.
//
// With Spec.GroupSize > 1 the backend switches to multiplexed group mode:
// one socket node hosts a whole sub-aggregator group of K
// virtual clients, so a fleet of N clients needs only ⌈N/K⌉ processes and
// sockets. Each round the coordinator ships one MsgBatchStart per non-empty
// group — the tasked members with their Lemma-1 scales and authoritative
// cursors — and receives one MsgPartial carrying the group's fixed-point
// fold, so coordinator ingress is O(groups·model) instead of
// O(participants·model). Group nodes keep no per-client state between
// rounds: the cursor table round-trips through every batch, which makes
// revival, resume, and membership churn pure coordinator-side bookkeeping.
type ClusterBackend struct {
	opts ClusterOptions
	// external: the fleet dials in from outside (an explicit Addr); the
	// backend spawns, respawns and waits on no node goroutine.
	external bool

	spec     *Spec
	runCtx   context.Context
	listener net.Listener
	// groupSize > 1 switches the backend into multiplexed group mode: slots,
	// node goroutines, and nodeErrs are then indexed by group, not client.
	groupSize int

	mu       sync.Mutex
	slots    []clusterSlot
	cursors  []ClientCursor // authoritative per-client executor cursors
	resume   []ClientCursor // staged by RestoreClientCursors before Open
	conns    []net.Conn     // every conn ever accepted, for teardown sweeps
	active   []bool         // current roster (all true without a membership plan)
	retired  []bool         // clients that permanently left (never respawned, never re-admitted)
	closed   bool
	booting  bool
	ready    int // number of currently ready slots
	bootErr  error
	cond     *sync.Cond
	misses   []int // rounds forfeited per client (healing mode)
	respawns []int // revivals per client (healing mode); a group's members move together

	nodeWG   sync.WaitGroup
	acceptWG sync.WaitGroup
	nodeErrs []error

	watchDone chan struct{}

	// Per-round buffers, reused across dispatches.
	updates []ClientUpdate
	errs    []error
	staged  []ClientCursor
	// Group-mode per-round buffers: the group partition, one error and codec
	// slot per group, and the batch-building scratch reused across sequential
	// sends.
	groups   []taskGroup
	gerrs    []error
	gcodecs  []*transport.Codec
	bClients []int
	bScales  []float64
	bFactors []float64
	bCursors []transport.Cursor
}

// NewClusterBackend constructs an unopened cluster backend.
func NewClusterBackend(opts ClusterOptions) *ClusterBackend {
	external := opts.Addr != ""
	if !external {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = transport.DefaultHandshakeTimeout
	}
	if opts.Retry.Attempts < 1 {
		opts.Retry = DefaultNodeRetry
	}
	if opts.Retry.HandshakeTimeout <= 0 {
		opts.Retry.HandshakeTimeout = opts.HandshakeTimeout
	}
	b := &ClusterBackend{opts: opts, external: external}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// RestoreClientCursors implements StatefulBackend: Open will position every
// node's executor at the given cursor (delivered inside its welcome).
func (b *ClusterBackend) RestoreClientCursors(cursors []ClientCursor) error {
	if b.spec != nil {
		return errors.New("engine: restore on an open backend")
	}
	b.resume = append([]ClientCursor(nil), cursors...)
	return nil
}

// ClientCursors implements StatefulBackend. Only valid between Dispatch
// calls — exactly when the orchestrator commits a round boundary.
func (b *ClusterBackend) ClientCursors(dst []ClientCursor) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spec == nil {
		return errors.New("engine: cluster backend not open")
	}
	if len(dst) != len(b.cursors) {
		return fmt.Errorf("engine: cursor buffer of %d for a %d-client fleet", len(dst), len(b.cursors))
	}
	copy(dst, b.cursors)
	return nil
}

// ClusterHealth reports the degradation bookkeeping of a self-healing run.
type ClusterHealth struct {
	// Misses[n] counts rounds client n forfeited (crash, disconnect, or
	// deadline miss).
	Misses []int
	// Respawns[n] counts how many times client n's node was revived.
	Respawns []int
}

// Health returns a copy of the degradation counters. Valid any time after
// Open, including after Close.
func (b *ClusterBackend) Health() ClusterHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return ClusterHealth{
		Misses:   append([]int(nil), b.misses...),
		Respawns: append([]int(nil), b.respawns...),
	}
}

// Open implements ExecutionBackend: it binds the coordinator's listener,
// starts the persistent accept loop, boots one node goroutine per client
// (unless the fleet is external), and waits until the whole starting roster
// has registered.
func (b *ClusterBackend) Open(ctx context.Context, spec *Spec) error {
	if b.spec != nil {
		return errors.New("engine: cluster backend already open")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	nClients := spec.Fed.NumClients()
	if b.resume != nil && len(b.resume) != nClients {
		return fmt.Errorf("engine: %d resume cursors for a %d-client fleet", len(b.resume), nClients)
	}
	ln, err := net.Listen("tcp", b.opts.Addr)
	if err != nil {
		return fmt.Errorf("engine: cluster listen: %w", err)
	}
	// Under the lock: Sockets and Health may be polled from other goroutines
	// while the run is still opening.
	b.mu.Lock()
	b.spec = spec
	b.runCtx = ctx
	b.listener = ln
	b.groupSize = 0
	units := nClients
	if spec.GroupSize > 1 {
		b.groupSize = spec.GroupSize
		units = (nClients + b.groupSize - 1) / b.groupSize
	}
	b.slots = make([]clusterSlot, units)
	b.nodeErrs = make([]error, units)
	b.misses = make([]int, nClients)
	b.respawns = make([]int, nClients)
	b.closed = false
	b.booting = true
	b.bootErr = nil
	b.ready = 0
	if b.resume != nil {
		b.cursors = append([]ClientCursor(nil), b.resume...)
	} else {
		b.cursors = initialCursors(spec.Seed, nClients)
	}

	// Membership: only the roster in effect at the starting boundary boots
	// now. Future joiners dial in immediately anyway — their MsgJoin parks
	// at the coordinator until their epoch — and clients that already left
	// (a resume past their departure) are retired outright. A failover
	// coordinator attaching to a checkpoint therefore re-welcomes exactly
	// the surviving fleet.
	startRound := 0
	if spec.Resume != nil {
		startRound = spec.Resume.NextRound
	}
	b.active = spec.Membership.ActiveAt(startRound, nClients)
	b.retired = make([]bool, nClients)
	if plan := spec.Membership; plan != nil {
		for i := range plan.Events {
			if plan.Events[i].Round >= startRound {
				break
			}
			for _, n := range plan.Events[i].Leave {
				b.retired[n] = true
			}
		}
	}
	activeCount := 0
	for _, a := range b.active {
		if a {
			activeCount++
		}
	}
	if b.groupSize > 1 {
		// Group mode: every group node boots regardless of the roster — a
		// socket hosts active and inactive members alike, and membership is
		// pure coordinator-side task filtering (see ApplyEpoch).
		activeCount = units
	}
	b.mu.Unlock()

	// On cancellation, close the listener and every connection: reads fail
	// immediately and stay failed, which the dispatch path, the accept loop,
	// and the node loops all translate into a prompt unwind. The broadcast
	// wakes Open's boot wait.
	if ctx.Done() != nil {
		// The goroutine selects on its own copy: teardown closes the channel
		// and clears the field, possibly before this goroutine first runs.
		done := make(chan struct{})
		b.watchDone = done
		go func() {
			select {
			case <-ctx.Done():
				b.closeConns()
				b.mu.Lock()
				b.cond.Broadcast()
				b.mu.Unlock()
			case <-done:
			}
		}()
	}

	b.acceptWG.Add(1)
	go b.acceptLoop()
	switch {
	case b.external:
		// The devices dial in on their own; prospective members park too.
	case b.groupSize > 1:
		for g := 0; g < units; g++ {
			b.spawnNode(g, false)
		}
	default:
		for n := 0; n < nClients; n++ {
			if b.active[n] {
				b.spawnNode(n, false)
			}
		}
		for _, n := range spec.Membership.joinsAfter(startRound) {
			b.spawnNode(n, true)
		}
	}

	// Wait until the starting roster has registered (parked joiners are not
	// waited on — they are admitted at their epoch), a node died on boot, or
	// the context went away.
	b.mu.Lock()
	for b.ready < activeCount && b.bootErr == nil && ctx.Err() == nil {
		b.cond.Wait()
	}
	bootErr := b.bootErr
	b.booting = false
	b.mu.Unlock()

	if err := ctx.Err(); err != nil {
		b.teardown()
		return err
	}
	if bootErr != nil {
		b.teardown()
		return ctxErrOr(ctx, fmt.Errorf("engine: cluster boot: %w", bootErr))
	}
	return nil
}

// spawnNode launches (or revives) the in-process node for client — or group
// — n with its own cancel handle: severed by fail, teardown, or the run
// context going away. join selects the prospective-member handshake
// (MsgJoin, parked until the client's epoch) over the member hello. Callers
// must not hold b.mu.
func (b *ClusterBackend) spawnNode(n int, join bool) {
	nodeCtx, cancel := context.WithCancel(b.runCtx)
	b.mu.Lock()
	b.slots[n].cancel = cancel
	b.slots[n].gen++
	gen := b.slots[n].gen
	b.mu.Unlock()
	cfg := NodeConfig{
		Addr: b.listener.Addr().String(), ID: n, Group: b.groupSize > 1, Join: join,
		Model: b.spec.Model, Shards: b.spec.Fed.Clients, Retry: b.opts.Retry,
		fault: b.opts.NodeFault, delay: b.opts.NodeDelay,
	}
	b.nodeWG.Add(1)
	go func() {
		defer b.nodeWG.Done()
		defer cancel()
		err := ServeNode(nodeCtx, cfg)
		b.mu.Lock()
		if b.slots[n].gen == gen {
			b.slots[n].pending = false
		}
		if err != nil {
			b.nodeErrs[n] = err
			if b.booting && b.bootErr == nil {
				b.bootErr = fmt.Errorf("node %d: %w", n, err)
			}
			b.cond.Broadcast()
		}
		b.mu.Unlock()
	}()
}

// acceptLoop accepts and registers node connections for the lifetime of the
// backend — at boot and whenever a healing cluster revives a node. It exits
// when the listener closes.
func (b *ClusterBackend) acceptLoop() {
	defer b.acceptWG.Done()
	for {
		conn, err := b.listener.Accept()
		if err != nil {
			// Listener closed: teardown, or the ctx watcher. Wake the boot
			// wait so Open re-checks its exit conditions.
			b.mu.Lock()
			if b.booting && b.bootErr == nil && b.runCtx.Err() == nil && !b.closed {
				b.bootErr = fmt.Errorf("accept: %w", err)
			}
			b.cond.Broadcast()
			b.mu.Unlock()
			return
		}
		if err := b.register(conn); err != nil {
			// A refused peer is closed and forgotten. Only a fleet the backend
			// spawned itself turns a refusal during boot into a boot failure:
			// an external listener must outlive strangers and stale redials.
			_ = conn.Close()
			b.mu.Lock()
			if b.booting && b.bootErr == nil && !b.external {
				b.bootErr = err
			}
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
}

// register runs the handshake/hello/welcome exchange for one accepted
// connection, all of it under the handshake deadline, so a peer that
// connects and goes silent cannot pin the accept loop beyond it. A reviving
// node, a resumed run and a redialing external device all arrive here.
//
// Members open with MsgHello, group nodes with MsgGroupHello, prospective
// members with MsgJoin. A join from a client whose epoch has not arrived yet
// is parked — the welcome is withheld until ApplyEpoch admits it at the
// boundary. A join from an already-active client (a re-spawned or redialing
// joiner) is welcomed immediately. A hello for a slot that is currently
// ready, an id out of range, a member hello from a client that is not active
// and anything from a retired client — leaves are permanent — are refused.
func (b *ClusterBackend) register(conn net.Conn) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("engine: backend closed")
	}
	b.conns = append(b.conns, conn)
	closing := b.runCtx.Err() != nil
	b.mu.Unlock()
	if closing {
		return b.runCtx.Err()
	}

	hsDeadline := time.Now().Add(b.opts.HandshakeTimeout)
	_ = conn.SetDeadline(hsDeadline)
	if err := transport.Handshake(conn); err != nil {
		return err
	}
	codec, err := transport.NewCodec(conn, b.opts.Timeout)
	if err != nil {
		return err
	}
	hello, err := codec.RecvDeadline(hsDeadline)
	if err != nil {
		return fmt.Errorf("engine: cluster hello: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})

	// The hello is the codec's until its next Recv; the slot keeps only these.
	id, typ := hello.ClientID, hello.Type
	b.mu.Lock()
	valid := id >= 0 && id < len(b.slots) && !b.slots[id].ready
	if b.groupSize > 1 {
		valid = valid && typ == transport.MsgGroupHello
	} else {
		valid = valid && !b.retired[id] && (typ == transport.MsgJoin ||
			typ == transport.MsgHello && b.active[id])
	}
	if !valid {
		b.mu.Unlock()
		return fmt.Errorf("engine: cluster got invalid hello (type %v, id %d)", typ, id)
	}
	if typ == transport.MsgJoin && !b.active[id] {
		defer b.mu.Unlock()
		if b.slots[id].parked != nil {
			return fmt.Errorf("engine: duplicate join from client %d", id)
		}
		b.slots[id].parked = codec
		b.slots[id].parkConn = conn
		b.cond.Broadcast()
		return nil
	}
	b.mu.Unlock()
	return b.welcome(id, codec, conn)
}

// welcome completes a registration: it sends slot id's node the run
// configuration and marks the slot ready. A per-client node also gets the
// coordinator's authoritative cursor, which is what makes a reviving node
// (and a resumed run) continue the exact stream the fleet would have
// produced uninterrupted. A group node gets none — it is stateless between
// rounds: every batch delivers the cursors of exactly the members it tasks.
func (b *ClusterBackend) welcome(id int, codec *transport.Codec, conn net.Conn) error {
	msg := &transport.Message{
		Type: transport.MsgWelcome, ClientID: id,
		LocalSteps: b.spec.LocalSteps, BatchSize: b.spec.BatchSize, Rounds: b.spec.Rounds,
	}
	if b.groupSize <= 1 {
		b.mu.Lock()
		cursor := transport.Cursor{RNG: b.cursors[id].RNG}
		b.mu.Unlock()
		msg.Cursor = &cursor
	}
	if err := codec.Send(msg); err != nil {
		return err
	}
	b.mu.Lock()
	slot := &b.slots[id]
	slot.codec, slot.conn = codec, conn
	slot.ready, slot.pending = true, false
	b.ready++
	b.cond.Broadcast()
	b.mu.Unlock()
	return nil
}

// Dispatch implements ExecutionBackend: it ships each task's round start to
// its node concurrently, collects the replies, and fills updates in task
// order so aggregation matches the local backend exactly.
//
// In strict mode (no RoundTimeout) any node failure fails the round. In
// self-healing mode the round runs under a deadline; tasks whose node
// crashed, disconnected, or missed the deadline are dropped from the
// returned updates (the orchestrator records those clients as absent — the
// unbiased estimator already prices unavailability), their connections are
// severed, and — for nodes the backend owns — revival dialers start in the
// background.
func (b *ClusterBackend) Dispatch(
	ctx context.Context, round int, global tensor.Vec, tasks []ClientTask,
) ([]ClientUpdate, error) {
	if b.spec == nil {
		return nil, errors.New("engine: cluster backend not open")
	}
	if b.groupSize > 1 {
		return nil, errors.New("engine: cluster backend is in group mode; rounds dispatch through DispatchPartials")
	}
	if cap(b.updates) < len(tasks) {
		b.updates = make([]ClientUpdate, len(tasks))
		b.errs = make([]error, len(tasks))
		b.staged = make([]ClientCursor, len(tasks))
	}
	updates := b.updates[:len(tasks)]
	errs := b.errs[:len(tasks)]
	staged := b.staged[:len(tasks)]
	healing := b.opts.healing()
	var deadline time.Time
	if healing {
		deadline = time.Now().Add(b.opts.RoundTimeout)
	}

	var wg sync.WaitGroup
	for i, task := range tasks {
		i, task := i, task
		errs[i] = nil
		staged[i] = ClientCursor{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.mu.Lock()
			codec, up := b.slots[task.Client].codec, b.slots[task.Client].ready
			b.mu.Unlock()
			if !up {
				errs[i] = fmt.Errorf("node %d: %w", task.Client, errNodeDown)
				return
			}
			if err := codec.Send(&transport.Message{
				Type: transport.MsgRoundStart, Round: round, Model: global, LR: task.LR,
			}); err != nil {
				errs[i] = fmt.Errorf("node %d: %w", task.Client, err)
				return
			}
			var reply *transport.Message
			var err error
			if healing {
				reply, err = codec.RecvDeadline(deadline)
			} else {
				reply, err = codec.Recv()
			}
			if err != nil {
				errs[i] = fmt.Errorf("node %d: %w", task.Client, err)
				return
			}
			if reply.Type != transport.MsgUpdate || reply.ClientID != task.Client || reply.Round != round {
				errs[i] = fmt.Errorf("node %d: unexpected reply (type %v, id %d, round %d)",
					task.Client, reply.Type, reply.ClientID, reply.Round)
				return
			}
			// reply belongs to the codec until its next Recv, which is next
			// round's at the earliest: the delta is used in place through this
			// round's aggregation (ClientUpdate.Delta's contract) and the
			// cursor is copied out.
			updates[i] = ClientUpdate{Client: task.Client, Delta: tensor.Vec(reply.Model)}
			if reply.Cursor != nil {
				staged[i] = ClientCursor{RNG: reply.Cursor.RNG}
			} else {
				errs[i] = fmt.Errorf("node %d: update missing cursor", task.Client)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !healing {
		for _, err := range errs {
			if err != nil {
				return nil, ctxErrOr(ctx, err)
			}
		}
	}

	// Commit the cursors of the survivors — in strict mode, everyone — compact
	// their updates into task order, and fail out the rest.
	b.commitCursors(tasks, errs, staged)
	k := 0
	for i := range tasks {
		if errs[i] == nil {
			updates[k] = updates[i]
			k++
			continue
		}
		b.fail(tasks[i].Client, tasks[i:i+1], errs[i])
	}
	return updates[:k], nil
}

// commitCursors folds the round's successfully reported node cursors into
// the coordinator's authoritative table.
func (b *ClusterBackend) commitCursors(tasks []ClientTask, errs []error, staged []ClientCursor) {
	b.mu.Lock()
	for i := range tasks {
		if errs[i] != nil {
			continue
		}
		b.cursors[tasks[i].Client] = staged[i]
	}
	b.mu.Unlock()
}

// fail ledgers a forfeited round for every tasked member of one unit — a
// client's node, or in group mode a whole group's — severs whatever is left
// of the unit's connection (waking both a dead node goroutine and any
// half-open peer), and starts a background revival dialer if the backend
// owns the node and its respawn budget allows. Runs on the orchestration
// goroutine, after the round's dispatch barrier.
func (b *ClusterBackend) fail(unit int, tasked []ClientTask, cause error) {
	b.mu.Lock()
	for _, t := range tasked {
		b.misses[t.Client]++
	}
	slot := &b.slots[unit]
	// An errNodeDown miss means the slot was already down when the round
	// dispatched; if a revival registered mid-round, that fresh connection
	// is healthy — severing it would churn the node for nothing.
	if slot.ready && !errors.Is(cause, errNodeDown) {
		if slot.cancel != nil {
			slot.cancel()
		}
		b.release(slot)
	}
	// One node hosts the members [lo, hi): their revival counters move
	// together, so the first one doubles as the unit's budget.
	lo, hi, retired := unit, unit+1, false
	if b.groupSize > 1 {
		lo = unit * b.groupSize
		hi = min(lo+b.groupSize, len(b.respawns))
	} else {
		retired = b.retired[unit]
	}
	respawn := !b.external && !b.closed && !slot.ready && !slot.pending && !retired &&
		b.runCtx.Err() == nil && b.respawns[lo] < DefaultMaxRespawns
	if respawn {
		slot.pending = true
		for n := lo; n < hi; n++ {
			b.respawns[n]++
		}
	}
	b.mu.Unlock()
	if respawn {
		b.spawnNode(unit, false)
	}
}

// DispatchPartials implements PartialBackend (group mode): one
// MsgBatchStart per non-empty group ships the tasked members with their
// Lemma-1 scales and authoritative cursors, then a worker pool sized to
// GOMAXPROCS drains the MsgPartial replies — so a 10^5-client round runs
// over ⌈fleet/K⌉ sockets with coordinator ingress of O(groups·model) and at
// most O(workers·model) reply buffers in flight.
//
// Failure semantics mirror flat dispatch, at group granularity: in strict
// mode any group failure fails the round; in self-healing mode a group that
// crashes, disconnects, or misses the deadline forfeits the round for every
// member it was tasked with, and its node — if the backend owns it — is
// revived in the background within the respawn budget.
func (b *ClusterBackend) DispatchPartials(
	ctx context.Context, round int, global tensor.Vec, tasks []ClientTask,
	groupSize int, sink func(Partial) error,
) error {
	if b.spec == nil {
		return errors.New("engine: cluster backend not open")
	}
	if b.groupSize <= 1 {
		return errors.New("engine: cluster backend was opened flat; hierarchical dispatch needs Spec.GroupSize > 1 at Open")
	}
	if groupSize != b.groupSize {
		return fmt.Errorf("engine: dispatch group size %d does not match the fleet's %d", groupSize, b.groupSize)
	}
	b.groups = splitGroups(b.groups[:0], tasks, groupSize)
	if cap(b.gerrs) < len(b.groups) {
		b.gerrs = make([]error, len(b.groups))
		b.gcodecs = make([]*transport.Codec, len(b.groups))
	}
	gerrs := b.gerrs[:len(b.groups)]
	gcodecs := b.gcodecs[:len(b.groups)]
	healing := b.opts.healing()
	var deadline time.Time
	if healing {
		deadline = time.Now().Add(b.opts.RoundTimeout)
	}

	// Phase 1 — sequential sends. One scratch set builds each batch in turn;
	// the codec is captured per group so a mid-round revival can never hand a
	// fresh connection to a round already in flight.
	for gi := range b.groups {
		g := b.groups[gi]
		gerrs[gi] = nil
		gcodecs[gi] = nil
		b.mu.Lock()
		codec, up := b.slots[g.id].codec, b.slots[g.id].ready
		b.bClients = b.bClients[:0]
		b.bScales = b.bScales[:0]
		b.bFactors = b.bFactors[:0]
		b.bCursors = b.bCursors[:0]
		poisoned := false
		for _, t := range tasks[g.lo:g.hi] {
			b.bClients = append(b.bClients, t.Client)
			b.bScales = append(b.bScales, t.Scale)
			b.bFactors = append(b.bFactors, t.Factor)
			b.bCursors = append(b.bCursors, transport.Cursor{RNG: b.cursors[t.Client].RNG})
			poisoned = poisoned || t.Factor != 1
		}
		b.mu.Unlock()
		// An honest batch ships no Factors section: its members fold at 1.
		factors := b.bFactors
		if !poisoned {
			factors = nil
		}
		if !up {
			gerrs[gi] = fmt.Errorf("group node %d: %w", g.id, errNodeDown)
			continue
		}
		if err := codec.Send(&transport.Message{
			Type: transport.MsgBatchStart, ClientID: g.id, Round: round,
			Model: global, LR: tasks[g.lo].LR,
			Clients: b.bClients, Scales: b.bScales, Factors: factors, Cursors: b.bCursors,
		}); err != nil {
			gerrs[gi] = fmt.Errorf("group node %d: %w", g.id, err)
			continue
		}
		gcodecs[gi] = codec
	}

	// Phase 2 — bounded reply drain. Workers own disjoint static stripes of
	// the group list, so each codec's receive direction has exactly one user.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(b.groups) {
		workers = len(b.groups)
	}
	if workers < 1 {
		workers = 1
	}
	var sinkMu sync.Mutex
	var sinkErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := w; gi < len(b.groups); gi += workers {
				if gerrs[gi] != nil {
					continue
				}
				g := b.groups[gi]
				codec := gcodecs[gi]
				var reply *transport.Message
				var err error
				if healing {
					reply, err = codec.RecvDeadline(deadline)
				} else {
					reply, err = codec.Recv()
				}
				if err != nil {
					// A socket error here usually means the node process died;
					// its own exit error is the diagnosable one, so fold it in
					// when it has already been recorded.
					b.mu.Lock()
					nodeErr := b.nodeErrs[g.id]
					b.mu.Unlock()
					if nodeErr != nil {
						err = fmt.Errorf("%w (node exit: %v)", err, nodeErr)
					}
					gerrs[gi] = fmt.Errorf("group node %d: %w", g.id, err)
					continue
				}
				if err := checkPartial(reply, g.id, tasks[g.lo:g.hi], len(global), round); err != nil {
					gerrs[gi] = err
					continue
				}
				// Commit the batch members' post-update cursors. reply is the
				// codec's until its next Recv: the cursors are copied here and
				// the sink consumes the limbs and clients before it returns.
				b.mu.Lock()
				for i, t := range tasks[g.lo:g.hi] {
					b.cursors[t.Client] = ClientCursor{RNG: reply.Cursors[i].RNG}
				}
				b.mu.Unlock()
				sinkMu.Lock()
				if sinkErr == nil {
					sinkErr = sink(Partial{
						Group: g.id, Clients: reply.Clients,
						Lo: reply.Lo, Hi: reply.Hi, Sat: reply.Sat,
					})
				}
				sinkMu.Unlock()
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	if !healing {
		for _, err := range gerrs {
			if err != nil {
				return ctxErrOr(ctx, err)
			}
		}
		return sinkErr
	}
	for gi, err := range gerrs {
		if err != nil {
			g := b.groups[gi]
			b.fail(g.id, tasks[g.lo:g.hi], err)
		}
	}
	return sinkErr
}

// checkPartial validates group's reply against the batch it was sent: the
// partial must name exactly the dispatched members, in dispatch order, so
// that every cursor is credited to the client that produced it. The reply
// comes from outside the program, so every per-member section is checked —
// GradSqs too, though the coordinator reads nothing from it.
func checkPartial(reply *transport.Message, group int, batch []ClientTask, p, round int) error {
	switch {
	case reply.Type != transport.MsgPartial || reply.ClientID != group || reply.Round != round:
		return fmt.Errorf("group node %d: unexpected reply (type %v, id %d, round %d)",
			group, reply.Type, reply.ClientID, reply.Round)
	case len(reply.Lo) != p || len(reply.Hi) != p:
		return fmt.Errorf("group node %d: partial limbs %d/%d, want %d", group, len(reply.Lo), len(reply.Hi), p)
	case len(reply.Clients) != len(batch) || len(reply.GradSqs) != len(batch) || len(reply.Cursors) != len(batch):
		return fmt.Errorf("group node %d: partial covers %d/%d/%d entries, batch had %d",
			group, len(reply.Clients), len(reply.GradSqs), len(reply.Cursors), len(batch))
	}
	for i, t := range batch {
		if reply.Clients[i] != t.Client {
			return fmt.Errorf("group node %d: partial names client %d at position %d, batch dispatched %d",
				group, reply.Clients[i], i, t.Client)
		}
	}
	return nil
}

// release closes a ready slot's connection and frees the slot. Callers hold
// b.mu.
func (b *ClusterBackend) release(slot *clusterSlot) {
	if !slot.ready {
		return
	}
	slot.ready = false
	b.ready--
	_ = slot.conn.Close()
	slot.codec, slot.conn = nil, nil
}

// Sockets reports how many node connections are currently registered — in
// group mode at most ⌈fleet/GroupSize⌉, the multiplexing bound the fleet
// benchmarks assert.
func (b *ClusterBackend) Sockets() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready
}

// ApplyEpoch implements EpochBackend: at a membership boundary the
// coordinator admits the epoch's joiners — welcoming their parked MsgJoin
// handshakes with the authoritative cursor, or waiting out a dial still in
// flight — and gracefully retires its leavers (MsgLeave, MsgBye, close).
// It runs on the orchestration goroutine between rounds, so no dispatch is
// in flight on any touched connection.
func (b *ClusterBackend) ApplyEpoch(ctx context.Context, r Roster) error {
	if b.spec == nil {
		return errors.New("engine: cluster backend not open")
	}
	if b.groupSize > 1 {
		// Group mode: a socket hosts its whole group, active members or not,
		// so roster churn is pure coordinator-side bookkeeping — joiners start
		// being tasked, leavers stop, and no connection moves.
		b.mu.Lock()
		for _, n := range r.Joined {
			b.active[n] = true
		}
		for _, n := range r.Left {
			b.active[n] = false
			b.retired[n] = true
		}
		b.mu.Unlock()
		return nil
	}
	for _, n := range r.Joined {
		if err := b.admit(ctx, n); err != nil {
			return err
		}
	}
	for _, n := range r.Left {
		if err := b.retire(ctx, n); err != nil {
			return err
		}
	}
	return nil
}

// admit activates client n and completes its join: the parked handshake is
// welcomed at the coordinator's cursor; one still in flight — an external
// device yet to dial in — is waited for; and if the backend's own
// prospective node died before its epoch, one fresh node is spawned.
// Joining is a deliberate scheduled event, not a tolerable fault, so a
// failed admission fails the run even in self-healing mode.
func (b *ClusterBackend) admit(ctx context.Context, n int) error {
	b.mu.Lock()
	b.active[n] = true
	slot := &b.slots[n]
	respawned := false
	for !slot.ready && slot.parked == nil {
		if err := ctx.Err(); err != nil {
			b.mu.Unlock()
			return err
		}
		if err := b.nodeErrs[n]; err != nil {
			if respawned {
				b.mu.Unlock()
				return fmt.Errorf("engine: admit node %d: %w", n, err)
			}
			respawned = true
			b.nodeErrs[n] = nil
			b.mu.Unlock()
			b.spawnNode(n, true)
			b.mu.Lock()
			continue
		}
		b.cond.Wait()
	}
	if slot.ready {
		// The join registered through the accept path after activation.
		b.mu.Unlock()
		return nil
	}
	codec, conn := slot.parked, slot.parkConn
	slot.parked, slot.parkConn = nil, nil
	b.mu.Unlock()
	if err := b.welcome(n, codec, conn); err != nil {
		_ = conn.Close()
		return ctxErrOr(ctx, fmt.Errorf("engine: welcome joining node %d: %w", n, err))
	}
	return nil
}

// retire permanently removes client n: a live node gets the graceful
// MsgLeave → MsgBye farewell before its socket closes; a currently-down
// node (healing mode) is simply marked retired so no revival dialer ever
// brings it back. In self-healing mode a farewell that fails is tolerated —
// the node is gone either way and the slot is already retired.
func (b *ClusterBackend) retire(ctx context.Context, n int) error {
	b.mu.Lock()
	b.active[n] = false
	b.retired[n] = true
	slot := &b.slots[n]
	up := slot.ready
	codec := slot.codec
	if !up && slot.cancel != nil {
		slot.cancel() // kill any revival dialer; the slot is retired
	}
	b.mu.Unlock()
	if !up {
		return nil
	}

	err := codec.Send(&transport.Message{Type: transport.MsgLeave})
	if err == nil {
		var bye *transport.Message
		bye, err = codec.RecvDeadline(time.Now().Add(b.opts.Timeout))
		if err == nil && (bye.Type != transport.MsgBye || bye.ClientID != n) {
			err = fmt.Errorf("expected bye, got type %v id %d", bye.Type, bye.ClientID)
		}
	}
	b.mu.Lock()
	b.release(slot)
	b.mu.Unlock()
	if err != nil && !b.opts.healing() {
		return ctxErrOr(ctx, fmt.Errorf("engine: retire node %d: %w", n, err))
	}
	return nil
}

// Close implements ExecutionBackend: it ends the session (MsgDone to every
// live node), waits for the fleet to exit, and tears down every socket. In
// strict mode any node that died for a reason other than the shutdown
// itself surfaces here; in self-healing mode node deaths were part of the
// round protocol (each one is already ledgered as a miss, see Health) and
// teardown is silent.
func (b *ClusterBackend) Close() error {
	if b.spec == nil {
		return nil
	}
	b.mu.Lock()
	b.closed = true
	codecs := make([]*transport.Codec, 0, len(b.slots))
	for i := range b.slots {
		if b.slots[i].ready {
			codecs = append(codecs, b.slots[i].codec)
		}
	}
	b.mu.Unlock()
	// A cancelled run was cut, not finished: its devices see their sockets
	// severed (the context watcher is already closing them), never a MsgDone
	// that happened to win the race against it.
	if b.runCtx.Err() == nil {
		for _, codec := range codecs {
			_ = codec.Send(&transport.Message{Type: transport.MsgDone})
		}
	}
	b.teardown()
	if b.opts.healing() {
		return nil
	}
	var errs []error
	for n, err := range b.nodeErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("engine: cluster node %d: %w", n, err))
		}
	}
	return errors.Join(errs...)
}

// teardown closes every socket, cancels every node, stops the watcher, and
// waits for the accept loop and node goroutines. Safe to call more than
// once.
func (b *ClusterBackend) teardown() {
	b.mu.Lock()
	b.closed = true
	for i := range b.slots {
		// Cancel only dead slots (their revival dialers would otherwise sit
		// out a backoff against a closed listener). Live nodes must NOT have
		// their sockets slammed from their own side: closing the
		// coordinator-side conn sends an orderly FIN, so a node still drains
		// a buffered MsgDone before seeing EOF.
		if !b.slots[i].ready && b.slots[i].cancel != nil {
			b.slots[i].cancel()
		}
	}
	b.mu.Unlock()
	b.closeConns()
	b.acceptWG.Wait()
	b.nodeWG.Wait()
	if b.watchDone != nil {
		close(b.watchDone)
		b.watchDone = nil
	}
	b.spec = nil
}

func (b *ClusterBackend) closeConns() {
	if b.listener != nil {
		_ = b.listener.Close()
	}
	b.mu.Lock()
	for _, c := range b.conns {
		_ = c.Close()
	}
	b.mu.Unlock()
}

var (
	_ ExecutionBackend = (*ClusterBackend)(nil)
	_ PartialBackend   = (*ClusterBackend)(nil)
	_ StatefulBackend  = (*ClusterBackend)(nil)
	_ EpochBackend     = (*ClusterBackend)(nil)
)

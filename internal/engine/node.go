package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/fixpoint"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/transport"
)

// NodeConfig is everything one device needs to serve a federation: where
// the coordinator is, who the device is, and the model and data it trains
// on. Steps, batch size and the executor's position arrive in the welcome.
type NodeConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// ID is the client this device is — or, with Group set, the group of
	// virtual clients it hosts: clients [ID·K, (ID+1)·K) of a run whose
	// Spec.GroupSize is K.
	ID    int
	Group bool
	// Join opens with MsgJoin instead of MsgHello: the device is a
	// prospective member of an elastic run and waits — unbounded, its epoch
	// may be rounds away — until the coordinator admits it.
	Join  bool
	Model model.Model
	// Shards holds the training shards indexed by client id. A per-client
	// device needs only Shards[ID]; a group device needs its members'.
	Shards []*data.Dataset
	// Retry tunes the dial, so a device can outwait a coordinator that is
	// still booting. Its HandshakeTimeout also bounds the wait for the
	// welcome. The zero value is a single attempt.
	Retry transport.RetryPolicy

	// In-process hooks, set only by ClusterBackend for the nodes it spawns:
	// fault and straggler injection.
	fault func(client, round int) transport.RoundFault
	delay func(client int) time.Duration
}

// shard returns client n's training shard.
func (c *NodeConfig) shard(n int) (*data.Dataset, error) {
	if n < 0 || n >= len(c.Shards) || c.Shards[n] == nil || c.Shards[n].Len() == 0 {
		return nil, fmt.Errorf("engine: node %d holds no shard for client %d", c.ID, n)
	}
	return c.Shards[n], nil
}

func (c *NodeConfig) validate() error {
	switch {
	case c.Model == nil:
		return errors.New("engine: node needs a model")
	case c.ID < 0:
		return fmt.Errorf("engine: negative node id %d", c.ID)
	case c.Group && c.Join:
		return errors.New("engine: a group node hosts members of any epoch; it does not join")
	case c.Group:
		return nil
	}
	_, err := c.shard(c.ID)
	return err
}

// ServeNode runs one device of a federation until the session ends: it
// dials the coordinator (with retry), completes the handshake, and serves
// round starts — or, as a group node, whole batches — until MsgDone or its
// own graceful retirement (MsgLeave, acknowledged with MsgBye), both of
// which return nil. It is the only device loop in the repository:
// ClusterBackend runs it in goroutines for the nodes it spawns, cmd/flnode
// runs it in a process of its own.
//
// The device holds no authority over its own state: its executor is
// positioned by the cursor in the welcome and reported back with every
// update, so a device that lost its connection simply calls ServeNode again
// and continues the exact stream the fleet would have produced
// uninterrupted. Reads are unbounded by design — an unselected device waits
// for its next invitation — so shutdown runs through the connection: when
// ctx is cancelled the socket is severed and ServeNode returns ctx.Err().
func ServeNode(ctx context.Context, cfg NodeConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	if err := serveNode(ctx, &cfg); err != nil {
		return ctxErrOr(ctx, err)
	}
	return nil
}

// node is the per-connection state of ServeNode: the run configuration from
// the welcome, a per-client device's cursor, and the scratch one update at a
// time runs in.
type node struct {
	cfg          *NodeConfig
	codec        *transport.Codec
	steps, batch int
	// cursor is a per-client device's stream, positioned by the welcome and
	// advanced by every update; a group node's batches carry its members'.
	cursor ClientCursor
	arena  execArena
	// delta is a per-client device's outgoing update; a group node folds from
	// the arena and writes none.
	delta   tensor.Vec
	acc     *fixpoint.Acc
	clients []int
	cursors []transport.Cursor
	// zeros is a partial's GradSqs section: a node computes no gradient
	// norms, and the coordinator ignores the section.
	zeros []float64
}

func serveNode(ctx context.Context, cfg *NodeConfig) error {
	// Deterministic backoff jitter, salted per node and decoupled from every
	// model-visible stream.
	jitter := stats.NewRNG(0x9E3779B97F4A7C15 * uint64(cfg.ID+1))
	conn, err := transport.DialRetry(ctx, cfg.Addr, cfg.Retry, jitter)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	stop := transport.CloseOnCancel(ctx, conn)
	defer stop()
	codec, err := transport.NewCodec(conn, 0)
	if err != nil {
		return err
	}
	nd := &node{cfg: cfg, codec: codec}
	if err := nd.hello(); err != nil {
		return err
	}
	for {
		msg, err := codec.Recv()
		if err != nil {
			return err
		}
		switch msg.Type {
		case transport.MsgDone:
			return nil
		case transport.MsgLeave:
			return codec.Send(&transport.Message{Type: transport.MsgBye, ClientID: cfg.ID})
		case transport.MsgRoundStart:
			err = nd.serveRound(ctx, msg)
		case transport.MsgBatchStart:
			err = nd.serveBatch(ctx, msg)
		default:
			err = fmt.Errorf("unexpected message %v", msg.Type)
		}
		if err != nil {
			return err
		}
	}
}

// hello announces the device and takes the run configuration — and, for a
// per-client device, the executor position — from the welcome.
func (nd *node) hello() error {
	cfg := nd.cfg
	helloType := transport.MsgHello
	switch {
	case cfg.Group:
		helloType = transport.MsgGroupHello
	case cfg.Join:
		helloType = transport.MsgJoin
	}
	if err := nd.codec.Send(&transport.Message{Type: helloType, ClientID: cfg.ID}); err != nil {
		return err
	}
	var welcome *transport.Message
	var err error
	if cfg.Join {
		welcome, err = nd.codec.Recv()
	} else {
		wait := cfg.Retry.HandshakeTimeout
		if wait <= 0 {
			wait = transport.DefaultHandshakeTimeout
		}
		welcome, err = nd.codec.RecvDeadline(time.Now().Add(wait))
	}
	switch {
	case err != nil:
		return err
	case welcome.Type != transport.MsgWelcome:
		return fmt.Errorf("expected welcome, got %v", welcome.Type)
	case welcome.LocalSteps <= 0 || welcome.BatchSize <= 0:
		return fmt.Errorf("welcome configures %d steps at batch %d", welcome.LocalSteps, welcome.BatchSize)
	}
	nd.steps, nd.batch = welcome.LocalSteps, welcome.BatchSize
	if cfg.Group {
		return nil
	}
	if welcome.Cursor == nil {
		return errors.New("welcome missing executor cursor")
	}
	nd.cursor = ClientCursor{RNG: welcome.Cursor.RNG}
	return nil
}

// stall consults the in-process fault and straggler hooks for the clients a
// message tasks: any member's crash kills the node (the multiplexing
// trade-off: a whole group forfeits the round), and the node waits out the
// slowest member's delay.
func (nd *node) stall(ctx context.Context, round int, clients ...int) error {
	var stall time.Duration
	for _, n := range clients {
		var d time.Duration
		if nd.cfg.fault != nil {
			f := nd.cfg.fault(n, round)
			if f.Crash {
				return transport.ErrInjectedCrash
			}
			d = f.Delay
		}
		if nd.cfg.delay != nil {
			d += nd.cfg.delay(n)
		}
		if d > stall {
			stall = d
		}
	}
	if stall <= 0 {
		return nil
	}
	timer := time.NewTimer(stall)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// serveRound answers one invitation of a per-client device with its delta
// and post-update cursor.
func (nd *node) serveRound(ctx context.Context, msg *transport.Message) error {
	if nd.cfg.Group {
		return errors.New("round start on a group node")
	}
	id := nd.cfg.ID
	if err := nd.stall(ctx, msg.Round, id); err != nil {
		return err
	}
	shard, err := nd.cfg.shard(id)
	if err != nil {
		return err
	}
	if len(nd.delta) != len(msg.Model) {
		nd.delta = tensor.NewVec(len(msg.Model))
	}
	if err := nd.arena.localUpdate(ctx, nd.cfg.Model, shard, id, &nd.cursor, msg.Model, nd.steps, nd.batch, msg.LR, nd.delta); err != nil {
		return err
	}
	cursor := transport.Cursor{RNG: nd.cursor.RNG}
	return nd.codec.Send(&transport.Message{
		Type: transport.MsgUpdate, ClientID: id, Round: msg.Round,
		Model: nd.delta, Cursor: &cursor,
	})
}

// serveBatch answers one round's batch of a group node: for each tasked
// member it trains in the node's one scratch arena from a copy of the cursor
// the batch carries, folds the member's update
// straight from the arena — fl(scale·fl(factor·(w − global))), the factor 1
// when the batch carries no Factors section — into the node's fixed-point
// accumulator, and ships back a single MsgPartial: O(model) per node, no
// delta buffer, no per-client state kept between rounds.
func (nd *node) serveBatch(ctx context.Context, msg *transport.Message) error {
	if !nd.cfg.Group || msg.ClientID != nd.cfg.ID ||
		len(msg.Scales) != len(msg.Clients) || len(msg.Cursors) != len(msg.Clients) ||
		(len(msg.Factors) != 0 && len(msg.Factors) != len(msg.Clients)) {
		return fmt.Errorf("malformed batch (id %d, %d clients, %d scales, %d factors, %d cursors)",
			msg.ClientID, len(msg.Clients), len(msg.Scales), len(msg.Factors), len(msg.Cursors))
	}
	if err := nd.stall(ctx, msg.Round, msg.Clients...); err != nil {
		return err
	}
	if p := len(msg.Model); nd.acc == nil || nd.acc.Len() != p {
		nd.acc = fixpoint.New(p)
	} else {
		nd.acc.Reset()
	}
	nd.clients = nd.clients[:0]
	nd.cursors = nd.cursors[:0]
	if cap(nd.zeros) < len(msg.Clients) {
		nd.zeros = make([]float64, len(msg.Clients))
	}
	for i, n := range msg.Clients {
		shard, err := nd.cfg.shard(n)
		if err != nil {
			return err
		}
		c := ClientCursor{RNG: msg.Cursors[i].RNG}
		if err := nd.arena.train(ctx, nd.cfg.Model, shard, n, &c, msg.Model, nd.steps, nd.batch, msg.LR); err != nil {
			return err
		}
		factor := 1.0
		if len(msg.Factors) > 0 {
			factor = msg.Factors[i]
		}
		if err := nd.acc.AddScaledDiff(msg.Scales[i], factor, nd.arena.w, msg.Model); err != nil {
			return err
		}
		nd.clients = append(nd.clients, n)
		nd.cursors = append(nd.cursors, transport.Cursor{RNG: c.RNG})
	}
	lo, hi, sat := nd.acc.Limbs()
	return nd.codec.Send(&transport.Message{
		Type: transport.MsgPartial, ClientID: nd.cfg.ID, Round: msg.Round,
		Clients: nd.clients, GradSqs: nd.zeros[:len(nd.clients)], Cursors: nd.cursors,
		Lo: lo, Hi: hi, Sat: sat,
	})
}

// ctxErrOr maps an error surfaced by a cancellation-severed socket back to
// the context's error.
func ctxErrOr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

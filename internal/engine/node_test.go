package engine

import (
	"context"
	"net"
	"strings"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/transport"
)

// TestServeBatchRestoresEachMemberInPlace drives a group node's serveBatch
// directly. The node runs every tasked member through one executor restored
// in place, so: each member's update and returned cursor must equal, bit for
// bit, those of a fresh executor built at that member's cursor (nothing of
// the previous member — here one far along its stream — leaks into the next;
// member 1 is poisoned, and its update must fold as its delta scaled by the
// batch's factor), the partial's GradSqs section is one zero per member (a
// node computes no norms), a malformed cursor in the middle of a batch fails
// the whole batch naming the client, and so does a Factors section that is
// neither empty nor one per member, after which the node still serves a good
// batch.
func TestServeBatchRestoresEachMemberInPlace(t *testing.T) {
	const steps, batch, lr = 3, 8, 0.05
	ctx := context.Background()
	fed := testFederation(t, 33, 3)
	m := testModel(t, fed)
	global := m.ZeroParams()

	// Member 0 arrives seven steps along its stream, members 1 and 2 fresh: a
	// leak would show as member 1 continuing member 0's stream.
	cursors := initialCursors(5, 3)
	warm, err := newClientExecAt(cursors[0])
	if err != nil {
		t.Fatal(err)
	}
	delta := m.ZeroParams()
	var arena execArena
	if err := warm.localUpdate(ctx, m, fed.Clients[0], 0, global, 7, batch, lr, &arena, delta); err != nil {
		t.Fatal(err)
	}
	cursors[0] = warm.cursor()
	scales := []float64{1.5, 0.25, 3}
	factors := []float64{1, -2, 1}

	// What the batch must come to: every member on an executor of its own.
	want := NewFixAcc(len(global))
	wantCursors := make([]transport.Cursor, len(cursors))
	for n, c := range cursors {
		st, err := newClientExecAt(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.localUpdate(ctx, m, fed.Clients[n], n, global, steps, batch, lr, &arena, delta); err != nil {
			t.Fatal(err)
		}
		delta.Scale(factors[n])
		if err := want.AddScaled(scales[n], delta); err != nil {
			t.Fatal(err)
		}
		wantCursors[n] = transport.Cursor{RNG: st.rng.State()}
	}
	wantLo, wantHi, _ := want.Limbs()

	nodeEnd, peerEnd := net.Pipe()
	defer func() { _ = nodeEnd.Close(); _ = peerEnd.Close() }()
	codec, err := transport.NewCodec(nodeEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := transport.NewCodec(peerEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	nd := &node{
		cfg:   &NodeConfig{ID: 0, Group: true, Model: m, Shards: fed.Clients},
		codec: codec, steps: steps, batch: batch,
		st: &clientExec{rng: new(stats.RNG)},
	}
	batchMsg := func(cs []ClientCursor) *transport.Message {
		msg := &transport.Message{
			Type: transport.MsgBatchStart, ClientID: 0, Round: 0, Model: global, LR: lr,
			Clients: []int{0, 1, 2}, Scales: scales, Factors: factors,
		}
		for _, c := range cs {
			msg.Cursors = append(msg.Cursors, transport.Cursor{RNG: c.RNG})
		}
		return msg
	}

	// A zero RNG state for client 1: the batch fails before anything is sent
	// (the pipe has no reader, a Send would block the test), naming client 1.
	bad := append([]ClientCursor(nil), cursors...)
	bad[1].RNG = [4]uint64{}
	if err := nd.serveBatch(ctx, batchMsg(bad)); err == nil || !strings.Contains(err.Error(), "client 1 cursor") {
		t.Fatalf("batch with a malformed cursor for client 1: error %v", err)
	}

	short := batchMsg(cursors)
	short.Factors = factors[:2]
	if err := nd.serveBatch(ctx, short); err == nil || !strings.Contains(err.Error(), "2 factors") {
		t.Fatalf("batch with 2 factors for 3 members: error %v", err)
	}

	// The same node, left by the failed batches at client 0's post-update
	// state, now serves the good batch.
	replies := make(chan *transport.Message, 1)
	go func() {
		msg, _ := peer.Recv()
		replies <- msg
	}()
	if err := nd.serveBatch(ctx, batchMsg(cursors)); err != nil {
		t.Fatal(err)
	}
	got := <-replies
	if got == nil || got.Type != transport.MsgPartial || got.Sat || len(got.Cursors) != 3 || len(got.GradSqs) != 3 {
		t.Fatalf("reply %+v is not a three-member partial", got)
	}
	for n := range cursors {
		if got.Cursors[n] != wantCursors[n] {
			t.Fatalf("client %d: cursor %+v, on an executor of its own %+v", n, got.Cursors[n], wantCursors[n])
		}
		if got.GradSqs[n] != 0 {
			t.Fatalf("client %d: gradient norm %v from a node, want 0", n, got.GradSqs[n])
		}
	}
	for j := range wantLo {
		if got.Lo[j] != wantLo[j] || got.Hi[j] != wantHi[j] {
			t.Fatalf("parameter %d: partial limbs differ from the per-executor fold", j)
		}
	}
}

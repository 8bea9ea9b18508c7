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
// the previous member — here one with a long gradient history — leaks into
// the next), and a malformed cursor in the middle of a batch fails the whole
// batch naming the client, after which the node still serves a good batch.
func TestServeBatchRestoresEachMemberInPlace(t *testing.T) {
	const steps, batch, lr = 3, 8, 0.05
	ctx := context.Background()
	fed := testFederation(t, 33, 3)
	m := testModel(t, fed)
	global := m.ZeroParams()

	// Member 0 arrives with gradient statistics from earlier rounds, members
	// 1 and 2 fresh: a leak would show as member 1 inheriting them.
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

	// What the batch must come to: every member on an executor of its own.
	want := NewFixAcc(len(global))
	wantCursors := make([]transport.Cursor, len(cursors))
	wantGradSqs := make([]float64, len(cursors))
	for n, c := range cursors {
		st, err := newClientExecAt(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.localUpdate(ctx, m, fed.Clients[n], n, global, steps, batch, lr, &arena, delta); err != nil {
			t.Fatal(err)
		}
		if err := want.AddScaled(scales[n], delta); err != nil {
			t.Fatal(err)
		}
		wantCursors[n] = transport.Cursor(st.cursor())
		wantGradSqs[n] = st.sqNorms.Mean()
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
			Clients: []int{0, 1, 2}, Scales: scales,
		}
		for _, c := range cs {
			msg.Cursors = append(msg.Cursors, transport.Cursor(c))
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
	bad[1] = cursors[1]
	bad[1].SqCount = -1
	if err := nd.serveBatch(ctx, batchMsg(bad)); err == nil || !strings.Contains(err.Error(), "client 1 cursor") {
		t.Fatalf("batch with a negative sample count for client 1: error %v", err)
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
		if got.GradSqs[n] != wantGradSqs[n] {
			t.Fatalf("client %d: gradient norm %v, on an executor of its own %v", n, got.GradSqs[n], wantGradSqs[n])
		}
	}
	for j := range wantLo {
		if got.Lo[j] != wantLo[j] || got.Hi[j] != wantHi[j] {
			t.Fatalf("parameter %d: partial limbs differ from the per-executor fold", j)
		}
	}
}

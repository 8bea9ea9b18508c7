package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// encodeFramed gob-encodes msgs into the wire form the codec ships: one
// length-prefixed frame per message.
func encodeFramed(t testing.TB, msgs ...*Message) []byte {
	t.Helper()
	var out bytes.Buffer
	var stage bytes.Buffer
	enc := gob.NewEncoder(&stage)
	for _, m := range msgs {
		stage.Reset()
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&out, stage.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestBatchMessagesRoundTrip pins the multiplexed-group envelope: a MsgBatchStart
// and its MsgPartial reply survive the codec bit-exactly, parallel slices
// and fixed-point limbs included.
func TestBatchMessagesRoundTrip(t *testing.T) {
	c1, c2 := net.Pipe()
	defer func() { _ = c1.Close() }()
	defer func() { _ = c2.Close() }()
	a, err := NewCodec(c1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec(c2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	batch := &Message{
		Type: MsgBatchStart, ClientID: 3, Round: 7, LR: 0.05,
		Model:   []float64{0.25, -1.5, 3.75},
		Clients: []int{9, 10, 11},
		Scales:  []float64{0.5, 1.25, 2},
		Cursors: []Cursor{{RNG: [4]uint64{1, 2, 3, 4}, SqCount: 5, SqMean: 0.5, SqM2: 0.25}, {}, {}},
	}
	partial := &Message{
		Type: MsgPartial, ClientID: 3, Round: 7,
		Clients: []int{9, 10, 11},
		GradSqs: []float64{1, 2, 3},
		Cursors: []Cursor{{}, {}, {RNG: [4]uint64{5, 6, 7, 8}}},
		Lo:      []uint64{1, ^uint64(0), 42},
		Hi:      []uint64{0, ^uint64(0), 7},
		Sat:     true,
	}
	done := make(chan error, 1)
	go func() {
		if err := a.Send(batch); err != nil {
			done <- err
			return
		}
		done <- a.Send(partial)
	}()
	for _, want := range []*Message{batch, partial} {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.ClientID != want.ClientID || got.Round != want.Round ||
			got.Sat != want.Sat || len(got.Clients) != len(want.Clients) ||
			len(got.Cursors) != len(want.Cursors) {
			t.Fatalf("round-trip mangled the envelope: %+v vs %+v", got, want)
		}
		for i := range want.Clients {
			if got.Clients[i] != want.Clients[i] {
				t.Fatalf("Clients[%d] = %d, want %d", i, got.Clients[i], want.Clients[i])
			}
		}
		for i := range want.Lo {
			if got.Lo[i] != want.Lo[i] || got.Hi[i] != want.Hi[i] {
				t.Fatalf("limb %d = (%d,%d), want (%d,%d)", i, got.Lo[i], got.Hi[i], want.Lo[i], want.Hi[i])
			}
		}
		if len(want.Cursors) > 0 && got.Cursors[len(got.Cursors)-1].RNG != want.Cursors[len(want.Cursors)-1].RNG {
			t.Fatal("cursor state did not survive the wire")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSendOversizedBatchFailsCleanly pins the per-message frame budget: a
// batch whose encoding exceeds MaxFrameSize must fail with ErrFrameTooLarge
// — naming the offending batch size — before a single byte moves, so the
// stream never desynchronizes.
// TestRecvDeadlineDoesNotArmLaterRecvs is the stale-deadline regression a
// million-client fleet found: a group node reads its welcome with
// RecvDeadline (bounded by the handshake window) and then blocks in Recv —
// no per-op timeout — for its first batch, which arrives only after the
// coordinator has serialized every batch ahead of it. The handshake deadline
// must not stay armed on the socket and kill that wait.
func TestRecvDeadlineDoesNotArmLaterRecvs(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()

	codec, err := NewCodec(client, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewCodec(server, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = sc.Send(&Message{Type: MsgWelcome, ClientID: 1})
		time.Sleep(150 * time.Millisecond) // well past the handshake deadline below
		_ = sc.Send(&Message{Type: MsgBatchStart, ClientID: 1, Round: 0})
	}()

	if _, err := codec.RecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatalf("welcome within the deadline: %v", err)
	}
	batch, err := codec.Recv()
	if err != nil {
		t.Fatalf("first batch after the handshake window closed: %v (stale deadline leaked)", err)
	}
	if batch.Type != MsgBatchStart {
		t.Fatalf("got %v, want MsgBatchStart", batch.Type)
	}
}

func TestSendOversizedBatchFailsCleanly(t *testing.T) {
	c1, c2 := net.Pipe()
	defer func() { _ = c1.Close() }()
	defer func() { _ = c2.Close() }()
	codec, err := NewCodec(c1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// ~8.5M full-mantissa float64 parameters (gob spends ~9 bytes on each;
	// zeros would compress to one byte) encode past the 64 MiB budget. No
	// reader is attached to the pipe: if Send tried to write anything it
	// would block and the test would time out, which is itself the
	// regression signal.
	model := make([]float64, MaxFrameSize/8+(1<<20))
	for i := range model {
		model[i] = 1.0 / 3.0
	}
	msg := &Message{
		Type:    MsgBatchStart,
		Clients: make([]int, 1000),
		Model:   model,
	}
	err = codec.Send(msg)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized batch returned %v, want ErrFrameTooLarge", err)
	}
	if !strings.Contains(err.Error(), "1000 clients") {
		t.Fatalf("error does not name the offending batch size: %v", err)
	}
}

// FuzzDecodeBatch throws arbitrary framed bytes at the codec's message
// decode path: it must never panic and never allocate beyond the frame
// budget, whatever a corrupt or hostile multiplexed peer ships.
func FuzzDecodeBatch(f *testing.F) {
	valid := encodeFramed(f, &Message{
		Type: MsgBatchStart, ClientID: 1, Round: 2, LR: 0.1,
		Model:   []float64{1, 2},
		Clients: []int{3, 4},
		Scales:  []float64{0.5, 0.5},
		Cursors: []Cursor{{RNG: [4]uint64{1, 2, 3, 4}}, {}},
	})
	f.Add(valid)
	f.Add(encodeFramed(f, &Message{
		Type: MsgPartial, ClientID: 1, Round: 2,
		Clients: []int{3}, GradSqs: []float64{9},
		Cursors: []Cursor{{}}, Lo: []uint64{1}, Hi: []uint64{2}, Sat: true,
	}))
	f.Add(valid[:len(valid)/2])                 // truncated mid-frame
	f.Add(append([]byte{0, 0, 0, 4}, valid...)) // length prefix lies
	f.Fuzz(func(t *testing.T, b []byte) {
		fr := &frameReader{r: bytes.NewReader(b)}
		dec := gob.NewDecoder(fr)
		var m Message
		if err := dec.Decode(&m); err != nil {
			return
		}
		// Whatever decoded must be re-encodable within the same budget the
		// sender enforces (or rejected by it) — never a panic.
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&m); err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
	})
}

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// memConn is the in-memory connection the wire-format tests drive a Codec
// over: reads come from r, writes pile up in w and are counted. The embedded
// nil net.Conn is never reached by a codec without timeouts.
type memConn struct {
	net.Conn
	r      io.Reader
	w      bytes.Buffer
	writes int
}

func (c *memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// encodeFramed is the wire form of msgs as the codec ships them: one
// length-prefixed frame per message, one Write per frame.
func encodeFramed(t testing.TB, msgs ...*Message) []byte {
	t.Helper()
	conn := &memConn{}
	codec, err := NewCodec(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := codec.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if conn.writes != len(msgs) {
		t.Fatalf("%d messages took %d writes, want one each", len(msgs), conn.writes)
	}
	return conn.w.Bytes()
}

// decodeFramed reads every frame of wire back through a fresh codec, handing
// each message to visit while it is still valid.
func decodeFramed(t testing.TB, wire []byte, visit func(i int, m *Message)) {
	t.Helper()
	codec, err := NewCodec(&memConn{r: bytes.NewReader(wire)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		m, err := codec.Recv()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		visit(i, m)
	}
}

// TestBatchMessagesRoundTrip pins the multiplexed-group envelope: a MsgBatchStart
// and its MsgPartial reply survive the codec bit-exactly, parallel slices
// and fixed-point limbs included.
func TestBatchMessagesRoundTrip(t *testing.T) {
	batch := &Message{
		Type: MsgBatchStart, ClientID: 3, Round: 7, LR: 0.05,
		Model:   []float64{0.25, -1.5, 3.75},
		Clients: []int{9, 10, 11},
		Scales:  []float64{0.5, 1.25, 2},
		Factors: []float64{1, -2, 1},
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
	want := []*Message{batch, partial}
	wire := encodeFramed(t, want...)
	// The layout's arithmetic: 4 B prefix, 91 B of header, counts and Sat,
	// 8 B per float/int/limb, 56 B per cursor.
	if n, sum := len(wire), (4+91+8*12+56*3)+(4+91+8*12+56*3); n != sum {
		t.Fatalf("batch + partial take %d wire bytes, layout says %d", n, sum)
	}
	seen := 0
	decodeFramed(t, wire, func(i int, got *Message) {
		requireSameBits(t, got, want[i])
		seen++
	})
	if seen != len(want) {
		t.Fatalf("decoded %d messages, sent %d", seen, len(want))
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
	// ~9.4M float64 parameters at 8 bytes each encode past the 64 MiB
	// budget whatever their values. No reader is attached to the pipe: if
	// Send tried to write anything it would block and the test would time
	// out, which is itself the regression signal.
	model := make([]float64, MaxFrameSize/8+(1<<20))
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
	// The size is arithmetic, so the refusal comes before anything is staged.
	if cap(codec.wbuf) != 0 {
		t.Fatalf("refused send grew the staging buffer to %d bytes", cap(codec.wbuf))
	}
}

// fuzzBatch is the valid batch the fuzz seeds and the malformed-frame table
// are cut from.
var fuzzBatch = &Message{
	Type: MsgBatchStart, ClientID: 1, Round: 2, LR: 0.1, Model: []float64{1, 2},
	Clients: []int{3, 4}, Scales: []float64{0.5, 0.5}, Cursors: []Cursor{{RNG: [4]uint64{1, 2, 3, 4}}, {}},
}

// FuzzDecodeBatch throws arbitrary framed bytes at the codec's receive
// path — every message type, not only the group pair its name dates from:
// any byte string is either rejected with an error or decodes to a message
// that re-encodes to the identical bytes, it never panics, and what the
// decoder sizes from a frame never exceeds that frame's own length. The
// seeds include version-8 batches with and without a Factors section.
func FuzzDecodeBatch(f *testing.F) {
	valid := encodeFramed(f, fuzzBatch)
	f.Add(valid)
	poisoned := *fuzzBatch
	poisoned.Factors = []float64{-2, 1}
	f.Add(encodeFramed(f, &poisoned))
	poisoned.Factors = []float64{math.NaN()} // a length the node refuses, the codec carries
	f.Add(encodeFramed(f, &poisoned))
	f.Add(encodeFramed(f, &Message{
		Type: MsgPartial, ClientID: 1, Round: 2,
		Clients: []int{3}, GradSqs: []float64{9},
		Cursors: []Cursor{{}}, Lo: []uint64{1}, Hi: []uint64{2}, Sat: true,
	}))
	f.Add(valid[:len(valid)/2])                 // truncated mid-frame
	f.Add(append([]byte{0, 0, 0, 4}, valid...)) // length prefix lies
	for _, m := range goldenMessages {
		f.Add(encodeFramed(f, m.msg))
	}
	for _, bad := range malformedFrames(f) {
		f.Add(bad.wire)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := NewCodec(&memConn{r: bytes.NewReader(b)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := in.Recv()
		if err != nil {
			return
		}
		frame := b[:frameHeaderSize+int(binary.BigEndian.Uint32(b))]
		if got := decodedBytes(m); got > len(frame) {
			t.Fatalf("a %d-byte frame decoded into %d bytes of storage", len(frame), got)
		}
		if cap(in.rbuf) > max(len(frame), frameHeaderSize) {
			t.Fatalf("a %d-byte frame was read into a %d-byte buffer", len(frame), cap(in.rbuf))
		}
		out := &memConn{}
		back, err := NewCodec(out, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Send(m); err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(out.w.Bytes(), frame) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", frame, out.w.Bytes())
		}
	})
}

// malformedFrames are byte strings one edit away from a valid batch frame,
// each of which the decoder must refuse: the fuzz target's hostile seeds and
// TestRecvRejectsMalformedFrames' table.
func malformedFrames(t testing.TB) []struct {
	name string
	wire []byte
} {
	valid := encodeFramed(t, fuzzBatch)
	// mutate resizes valid by grow bytes, keeps the length prefix honest
	// about it, and applies edit to the payload.
	mutate := func(grow int, edit func(payload []byte)) []byte {
		b := append([]byte(nil), valid...)
		b = append(b, make([]byte, max(grow, 0))...)[:len(valid)+grow]
		binary.BigEndian.PutUint32(b, uint32(len(b)-frameHeaderSize))
		if edit != nil {
			edit(b[frameHeaderSize:])
		}
		return b
	}
	count := func(n uint32) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint32(p[headerSize:], n) }
	}
	return []struct {
		name string
		wire []byte
	}{
		{"zero-length frame", []byte{0, 0, 0, 0}},
		{"type past the last", mutate(0, func(p []byte) { p[0] = byte(MsgPartial) + 1 })},
		{"type zero", mutate(0, func(p []byte) { p[0] = 0 })},
		{"Model count one too many", mutate(0, count(3))},
		{"Model count one too few", mutate(0, count(1))},
		{"Model count past the frame", mutate(0, count(1e9))},
		{"Model count that overflows a 32-bit size", mutate(0, count(1<<29+2))},
		{"cursor flag not 0 or 1", mutate(0, func(p []byte) { p[headerSize-1] = 2 })},
		{"cursor flag set, no cursor", mutate(0, func(p []byte) { p[headerSize-1] = 1 })},
		{"Sat not 0 or 1", mutate(0, func(p []byte) { p[len(p)-1] = 7 })},
		{"Sat byte cut off", mutate(-1, nil)},
		{"cut inside a section", mutate(-30, nil)},
		{"cut inside the header", mutate(headerSize/2-len(valid)+frameHeaderSize, nil)},
		{"trailing bytes", mutate(5, nil)},
	}
}

// TestRecvRejectsMalformedFrames: each hostile seed is refused with an
// error, and a refusal sizes nothing from the frame's lies.
func TestRecvRejectsMalformedFrames(t *testing.T) {
	for _, bad := range malformedFrames(t) {
		codec, err := NewCodec(&memConn{r: bytes.NewReader(bad.wire)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := codec.Recv()
		if err == nil {
			t.Errorf("%s: decoded to %+v", bad.name, m)
			continue
		}
		if got := decodedBytes(&codec.rmsg); got > len(bad.wire) {
			t.Errorf("%s: refusal still sized %d bytes from a %d-byte frame", bad.name, got, len(bad.wire))
		}
		t.Logf("%s: %v", bad.name, err)
	}
}

// decodedBytes is the storage a decoded message's sections hold.
func decodedBytes(m *Message) int {
	return 8*(cap(m.Model)+cap(m.Scales)+cap(m.Factors)+cap(m.GradSqs)+cap(m.Clients)+cap(m.Lo)+cap(m.Hi)) +
		cursorSize*cap(m.Cursors)
}

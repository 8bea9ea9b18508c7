// Package transport is the wire layer of the paper's hardware prototype ("We
// develop a TCP-based socket interface for the communication between the
// server and clients"): a version handshake, length-framed fixed-layout
// messages, a deadline-aware codec, and a retrying dial — and nothing else.
// It owns no round loop, no sampling and no aggregation; the one coordinator
// and the one device loop that speak this protocol are engine.ClusterBackend
// and engine.ServeNode, so transport imports none of the model, data or
// orchestration packages.
//
// Every connection opens with a 5-byte handshake — a 4-byte magic followed
// by a protocol version byte, written by both sides and validated before any
// message moves. After the handshake, each message travels in exactly one
// length-prefixed frame (4-byte big-endian length, then the payload),
// bounded by MaxFrameSize so a corrupt or hostile peer cannot force an
// unbounded allocation; a Codec hands prefix and payload to the connection
// in a single Write.
//
// A frame's payload is one Message in a fixed little-endian layout, the same
// for all eleven message types:
//
//	type        1 byte, MsgHello..MsgPartial
//	ClientID, Round, LocalSteps, BatchSize, Rounds    5 × int64
//	LR, GradSqNorm                                    2 × float64 bits
//	cursor flag 1 byte (0 or 1), then the 56-byte Cursor when 1
//	Model, Scales, GradSqs    uint32 count + count × float64 bits, each
//	Clients                   uint32 count + count × int64
//	Cursors                   uint32 count + count × 56-byte Cursor
//	Lo, Hi                    uint32 count + count × uint64, each
//	Sat         1 byte (0 or 1)
//
// A Cursor is RNG[0..3] (uint64), SqCount (int64), SqMean, SqM2 (float64
// bits). Floats travel as math.Float64bits, so every NaN payload, signed
// zero and subnormal arrives bit for bit. The encoding is canonical: a
// payload the decoder accepts re-encodes to the identical bytes (nil and
// empty sections both have count 0), trailing bytes are refused, and every
// declared count is checked against the bytes left in the frame before
// anything is sized from it.
//
// A session is: hello (MsgHello for a member, MsgJoin for a prospective
// member, MsgGroupHello for a node hosting a whole group of virtual clients)
// answered by MsgWelcome; then one MsgRoundStart → MsgUpdate exchange per
// round a client is sampled in, or one MsgBatchStart → MsgPartial exchange
// per round a group has tasked members; ended by MsgDone, or for one
// retiring member by MsgLeave → MsgBye. Participation is always decided by
// the coordinator: a round start is the invitation.
package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// Protocol framing constants.
const (
	// ProtocolVersion is the wire-protocol version, bumped on every
	// incompatible change; peers of different versions refuse each other in
	// the handshake. Version 7 replaced the gob message encoding with the
	// fixed little-endian layout in the package comment.
	ProtocolVersion byte = 7
	// MaxFrameSize bounds a single frame's payload. The largest legitimate
	// frame is a MsgRoundStart carrying the flattened global model; at 8
	// bytes a parameter 64 MiB covers ~8.3M float64 parameters.
	MaxFrameSize = 64 << 20
	// frameHeaderSize is the length prefix: a 4-byte big-endian payload size.
	frameHeaderSize = 4
)

// handshakeMagic identifies the protocol on the wire ("UFL" + NUL).
var handshakeMagic = [4]byte{'U', 'F', 'L', 0}

// ErrVersionMismatch reports a peer speaking a different protocol version.
// Use errors.Is to detect it; the full error carries both versions.
var ErrVersionMismatch = errors.New("transport: protocol version mismatch")

// ErrBadMagic reports a peer that is not speaking this protocol at all.
var ErrBadMagic = errors.New("transport: bad handshake magic")

// ErrFrameTooLarge reports a message whose encoded frame exceeds
// MaxFrameSize. Both Send (before any bytes move) and DecodeFrame (before
// any allocation) return it; use errors.Is to detect it. For batched
// messages the error names the offending batch size, so an oversized
// MsgBatchStart points straight at the group-size knob that caused it.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// Handshake exchanges and validates the protocol preamble on a fresh
// connection: each side writes the 4-byte magic plus its version byte, then
// reads and checks the peer's. Both the coordinator and the nodes call it
// symmetrically, so a version-skewed or alien peer is rejected with a clear
// error before any message traffic. The caller manages deadlines.
func Handshake(conn net.Conn) error {
	if conn == nil {
		return errors.New("transport: nil connection")
	}
	var out [frameHeaderSize + 1]byte
	copy(out[:], handshakeMagic[:])
	out[4] = ProtocolVersion
	if _, err := conn.Write(out[:]); err != nil {
		return fmt.Errorf("transport: handshake write: %w", err)
	}
	var in [frameHeaderSize + 1]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return fmt.Errorf("transport: handshake read: %w", err)
	}
	if !bytes.Equal(in[:4], handshakeMagic[:]) {
		return fmt.Errorf("%w: got % x, want % x", ErrBadMagic, in[:4], handshakeMagic[:])
	}
	if in[4] != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks version %d, this build speaks %d",
			ErrVersionMismatch, in[4], ProtocolVersion)
	}
	return nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrameTooLarge, len(payload), MaxFrameSize)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// DecodeFrame reads one length-prefixed frame from r, reusing buf when it is
// large enough. It validates the declared length against MaxFrameSize before
// allocating, so a corrupt or hostile length prefix cannot trigger an
// unbounded allocation; the FuzzDecodeFrame target pins this. The length
// prefix is read through buf too (a local array would escape through the
// io.Reader), so a caller that brings a buffer pays no allocation.
func DecodeFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize)
	}
	hdr := buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrameTooLarge, n, MaxFrameSize)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("transport: short frame: %w", err)
	}
	return buf, nil
}

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types.
const (
	// MsgHello is a member's opening message: it announces its client ID.
	MsgHello MsgType = iota + 1
	// MsgWelcome answers a hello with the run configuration and, for a
	// per-client node, the authoritative executor cursor.
	MsgWelcome
	// MsgRoundStart invites one client into a round: it carries the current
	// global model and the round's learning rate.
	MsgRoundStart
	// MsgUpdate carries the invited client's model delta back.
	MsgUpdate
	// MsgDone ends the session.
	MsgDone
	// MsgJoin is a prospective member's hello: the peer asks to enter the
	// federation and is welcomed — with its authoritative cursor — at the
	// membership-epoch boundary that admits it.
	MsgJoin
	// MsgLeave retires a node at an epoch boundary: a graceful, permanent
	// departure ordered by the coordinator.
	MsgLeave
	// MsgBye acknowledges a MsgLeave; the connection closes after it.
	MsgBye
	// MsgGroupHello is a multiplexed node's hello: the peer hosts a whole
	// sub-aggregator group of virtual clients, ClientID = group index.
	MsgGroupHello
	// MsgBatchStart carries one round's work for an entire group over a
	// single socket: the global model plus parallel Clients/Scales/Cursors
	// slices, one entry per tasked member.
	MsgBatchStart
	// MsgPartial carries a group's folded contribution back: the 128-bit
	// fixed-point limbs of Σ (a_n/q_n)·delta_n over the batch, plus
	// per-member gradient statistics and post-update cursors.
	MsgPartial
)

// Message is the single wire envelope. Unused fields stay at their zero
// values: scalars travel as zeros, sections as a zero count.
type Message struct {
	Type     MsgType
	ClientID int
	Round    int
	// Model carries the flattened global parameters (MsgRoundStart,
	// MsgBatchStart) or the client's delta (MsgUpdate).
	Model []float64
	// LocalSteps, BatchSize and Rounds configure node-side SGD (MsgWelcome).
	LocalSteps int
	BatchSize  int
	Rounds     int
	// LR is the learning rate for the announced round (MsgRoundStart,
	// MsgBatchStart).
	LR float64
	// GradSqNorm reports the client's running mean squared gradient norm
	// (MsgUpdate), feeding the server's G_n estimates.
	GradSqNorm float64
	// Cursor carries resumable executor state: on MsgWelcome the coordinator
	// positions the node's SGD stream (fresh boot, resume, or reconnect after
	// a failure all look the same to the node); on MsgUpdate the node reports
	// its post-update cursor so the coordinator's table stays authoritative
	// even if the node later dies.
	Cursor *Cursor

	// Multiplexed-group fields. On MsgBatchStart, Clients lists the tasked
	// members of the group, Scales their Lemma-1 a_n/q_n fold coefficients,
	// and Cursors their authoritative executor positions — the node keeps no
	// per-client state between rounds. On MsgPartial, Clients echoes the
	// batch, Lo/Hi carry the fixed-point limbs of the group sum (one pair per
	// model parameter), Sat reports fixed-point saturation, and
	// GradSqs/Cursors report per-member statistics and post-update positions
	// aligned with Clients.
	Clients []int
	Scales  []float64
	Cursors []Cursor
	Lo, Hi  []uint64
	Sat     bool
	GradSqs []float64
}

// Cursor is the wire form of one client executor's resumable state: the
// xoshiro cursor of its private SGD stream and its Welford gradient-norm
// accumulator.
type Cursor struct {
	RNG     [4]uint64
	SqCount int
	SqMean  float64
	SqM2    float64
}

// Wire sizes of the fixed layout.
const (
	cursorSize = 7 * 8
	// headerSize covers the type byte, the seven scalars and the cursor flag.
	headerSize = 1 + 7*8 + 1
	// minMessageSize is a message with no cursor and seven empty sections.
	minMessageSize = headerSize + 7*4 + 1
)

// encodedSize is the exact payload length of m.
func encodedSize(m *Message) int {
	n := minMessageSize + cursorSize*len(m.Cursors) +
		8*(len(m.Model)+len(m.Scales)+len(m.GradSqs)+len(m.Clients)+len(m.Lo)+len(m.Hi))
	if m.Cursor != nil {
		n += cursorSize
	}
	return n
}

// encode writes m's payload into b, which is encodedSize(m) bytes long. Each
// put helper fills the front of the slice it is given and returns the rest.
func (m *Message) encode(b []byte) {
	b[0] = byte(m.Type)
	b = b[1:]
	for _, v := range [...]int{m.ClientID, m.Round, m.LocalSteps, m.BatchSize, m.Rounds} {
		b = putWord(b, uint64(v))
	}
	b = putWord(b, math.Float64bits(m.LR))
	b = putWord(b, math.Float64bits(m.GradSqNorm))
	b = putFlag(b, m.Cursor != nil)
	if m.Cursor != nil {
		b = putCursor(b, m.Cursor)
	}
	b = putFloats(b, m.Model)
	b = putFloats(b, m.Scales)
	b = putFloats(b, m.GradSqs)
	b = putCount(b, len(m.Clients))
	for _, v := range m.Clients {
		b = putWord(b, uint64(v))
	}
	b = putCount(b, len(m.Cursors))
	for i := range m.Cursors {
		b = putCursor(b, &m.Cursors[i])
	}
	b = putWords(b, m.Lo)
	b = putWords(b, m.Hi)
	putFlag(b, m.Sat)
}

func putWord(b []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(b, v)
	return b[8:]
}

func putCount(b []byte, n int) []byte {
	binary.LittleEndian.PutUint32(b, uint32(n))
	return b[4:]
}

func putFlag(b []byte, v bool) []byte {
	b[0] = 0
	if v {
		b[0] = 1
	}
	return b[1:]
}

func putFloats(b []byte, v []float64) []byte {
	b = putCount(b, len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b[8*len(v):]
}

func putWords(b []byte, v []uint64) []byte {
	b = putCount(b, len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b[8*len(v):]
}

func putCursor(b []byte, c *Cursor) []byte {
	for _, w := range c.RNG {
		b = putWord(b, w)
	}
	b = putWord(b, uint64(c.SqCount))
	b = putWord(b, math.Float64bits(c.SqMean))
	return putWord(b, math.Float64bits(c.SqM2))
}

// frame is the unread remainder of a payload being decoded. The first
// violation sticks in err and empties the frame, so the reads after it are
// harmless and decode checks once, at the end.
type frame struct {
	b   []byte
	err error
}

func (f *frame) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("transport: decode: "+format, args...)
	}
	f.b = nil
}

// take returns the next n bytes of the frame, or nil if it is too short.
func (f *frame) take(what string, n int) []byte {
	if n > len(f.b) {
		f.fail("%s needs %d bytes, frame has %d left", what, n, len(f.b))
		return nil
	}
	s := f.b[:n]
	f.b = f.b[n:]
	return s
}

// section reads a count prefix and returns that many size-byte entries. The
// declared count is held against the bytes actually left before anything is
// sized from it, so a lying prefix cannot cost more memory than its frame.
func (f *frame) section(what string, size int) (body []byte, n int) {
	h := f.take(what, 4)
	if h == nil {
		return nil, 0
	}
	count := binary.LittleEndian.Uint32(h)
	if uint64(count) > uint64(len(f.b)/size) {
		f.fail("%s declares %d entries of %d bytes, frame has %d left", what, count, size, len(f.b))
		return nil, 0
	}
	return f.take(what, int(count)*size), int(count)
}

func (f *frame) flag(what string, b byte) bool {
	if b > 1 {
		f.fail("%s flag is %d, want 0 or 1", what, b)
	}
	return b == 1
}

// int narrows a wire int64; the check compiles away where int is 64 bits.
func (f *frame) int(w uint64) int {
	if v := int64(w); int64(int(v)) != v {
		f.fail("integer %d overflows int", v)
	}
	return int(w)
}

func (f *frame) cursor(c *Cursor, b []byte) {
	le := binary.LittleEndian
	for i := range c.RNG {
		c.RNG[i] = le.Uint64(b[8*i:])
	}
	c.SqCount = f.int(le.Uint64(b[32:]))
	c.SqMean = math.Float64frombits(le.Uint64(b[40:]))
	c.SqM2 = math.Float64frombits(le.Uint64(b[48:]))
}

// resize returns s with length n, reusing its storage when that is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// floats reads one float64 section into dst's storage.
func (f *frame) floats(what string, dst []float64) []float64 {
	b, n := f.section(what, 8)
	dst = resize(dst, n)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// words reads one uint64 section into dst's storage.
func (f *frame) words(what string, dst []uint64) []uint64 {
	b, n := f.section(what, 8)
	dst = resize(dst, n)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return dst
}

// decode parses one frame's payload into m, overwriting every field and
// reusing the storage of m's slices; cur backs m.Cursor when the payload
// carries one. On error m is left partly written.
func (m *Message) decode(payload []byte, cur *Cursor) error {
	f := frame{b: payload}
	h := f.take("header", headerSize)
	if h == nil {
		return f.err
	}
	le := binary.LittleEndian
	m.Type = MsgType(h[0])
	if m.Type < MsgHello || m.Type > MsgPartial {
		f.fail("unknown message type %d", h[0])
	}
	for i, v := range [...]*int{&m.ClientID, &m.Round, &m.LocalSteps, &m.BatchSize, &m.Rounds} {
		*v = f.int(le.Uint64(h[1+8*i:]))
	}
	m.LR = math.Float64frombits(le.Uint64(h[41:]))
	m.GradSqNorm = math.Float64frombits(le.Uint64(h[49:]))
	m.Cursor = nil
	if f.flag("cursor", h[57]) {
		if b := f.take("cursor", cursorSize); b != nil {
			f.cursor(cur, b)
			m.Cursor = cur
		}
	}
	m.Model = f.floats("Model", m.Model)
	m.Scales = f.floats("Scales", m.Scales)
	m.GradSqs = f.floats("GradSqs", m.GradSqs)
	b, n := f.section("Clients", 8)
	m.Clients = resize(m.Clients, n)
	for i := range m.Clients {
		m.Clients[i] = f.int(le.Uint64(b[8*i:]))
	}
	b, n = f.section("Cursors", cursorSize)
	m.Cursors = resize(m.Cursors, n)
	for i := range m.Cursors {
		f.cursor(&m.Cursors[i], b[cursorSize*i:])
	}
	m.Lo = f.words("Lo", m.Lo)
	m.Hi = f.words("Hi", m.Hi)
	if b = f.take("Sat", 1); b != nil {
		m.Sat = f.flag("Sat", b[0])
	}
	if len(f.b) > 0 {
		f.fail("%d trailing bytes", len(f.b))
	}
	return f.err
}

// Codec moves Messages over a connection, one frame each, under optional
// deadlines. Send stages the length prefix and the payload in one reusable
// buffer and hands them to the connection in a single Write — one syscall
// and one segment for a small message. Recv reads the frame into a second
// reusable buffer and decodes it into a Message the codec owns: the result
// and every slice in it are valid only until the next Recv (or RecvDeadline)
// on the same codec, so a caller copies what it keeps longer. The two
// directions share no state — a received message may be passed to Send, and
// one goroutine may Send while another Recvs — but a Codec is not safe for
// concurrent use of the same direction. In steady state neither direction
// allocates.
type Codec struct {
	conn    net.Conn
	timeout time.Duration
	wbuf    []byte  // Send: length prefix + payload
	rbuf    []byte  // Recv: the current frame's payload
	rmsg    Message // Recv: the decoded result
	rcursor Cursor  // Recv: storage behind rmsg.Cursor
}

// NewCodec wraps conn. timeout bounds each send/receive (0 = no deadline).
func NewCodec(conn net.Conn, timeout time.Duration) (*Codec, error) {
	if conn == nil {
		return nil, errors.New("transport: nil connection")
	}
	return &Codec{conn: conn, timeout: timeout}, nil
}

// Send writes one message as a single frame with a single Write. The
// encoded size is known from the message's shape alone, so a message over
// MaxFrameSize is refused before a byte is staged or moved.
func (c *Codec) Send(m *Message) error {
	size := encodedSize(m)
	if size > MaxFrameSize {
		// Name the batch size, because for MsgBatchStart/MsgPartial the fix
		// is a smaller group, not a bigger frame limit.
		if n := len(m.Clients); n > 0 {
			return fmt.Errorf("%w: message type %d with batch of %d clients encodes to %d bytes (limit %d)",
				ErrFrameTooLarge, m.Type, n, size, MaxFrameSize)
		}
		return fmt.Errorf("%w: message type %d encodes to %d bytes (limit %d)",
			ErrFrameTooLarge, m.Type, size, MaxFrameSize)
	}
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("transport: set write deadline: %w", err)
		}
	}
	c.wbuf = resize(c.wbuf, frameHeaderSize+size)
	binary.BigEndian.PutUint32(c.wbuf, uint32(size))
	m.encode(c.wbuf[frameHeaderSize:])
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Recv reads one message. The result is owned by the codec and valid until
// the next Recv or RecvDeadline on it.
func (c *Codec) Recv() (*Message, error) {
	if c.timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, fmt.Errorf("transport: set read deadline: %w", err)
		}
	}
	return c.recv()
}

// RecvDeadline reads one message under an absolute deadline, overriding the
// codec's per-operation timeout for this read — the accept path uses it to
// bound the hello handshake independently of the (much longer) round
// timeout. The result has Recv's lifetime.
func (c *Codec) RecvDeadline(deadline time.Time) (*Message, error) {
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return nil, fmt.Errorf("transport: set read deadline: %w", err)
	}
	m, err := c.recv()
	if c.timeout == 0 {
		// The deadline is a one-off override. A codec with no per-operation
		// timeout must not inherit it for every later Recv: a group node's
		// first batch can legitimately arrive long after the handshake
		// window closes, once the coordinator has serialized hundreds of
		// batches ahead of it.
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	return m, err
}

func (c *Codec) recv() (*Message, error) {
	payload, err := DecodeFrame(c.conn, c.rbuf)
	if err != nil {
		return nil, fmt.Errorf("transport: read frame: %w", err)
	}
	c.rbuf = payload[:cap(payload)]
	if err := c.rmsg.decode(payload, &c.rcursor); err != nil {
		return nil, err
	}
	return &c.rmsg, nil
}

// Close closes the underlying connection.
func (c *Codec) Close() error { return c.conn.Close() }

// DefaultHandshakeTimeout bounds the hello phase of a connection — the
// preamble plus the first message — on both the accept and the dial side
// when the caller configures none.
const DefaultHandshakeTimeout = 10 * time.Second

// RoundFault describes a fault injected into one round of a node's run —
// the socket-layer counterpart of a scenario fault schedule. The zero value
// is a healthy round.
type RoundFault struct {
	// Delay stalls the node before it acts on the round (a straggler, or a
	// hung peer when the delay exceeds the round deadline).
	Delay time.Duration
	// Crash severs the connection before replying; the node loop returns
	// ErrInjectedCrash.
	Crash bool
}

// ErrInjectedCrash is returned by a node loop whose fault hook ordered the
// connection severed mid-round. Harnesses treat it as the expected outcome
// of a scheduled dropout rather than a failure.
var ErrInjectedCrash = errors.New("transport: injected crash")

// CloseOnCancel closes conn when ctx is cancelled. Receive loops otherwise
// block unboundedly on a dead or silent peer, and a mere deadline
// slam would be erased by the Codec's per-operation deadline resets —
// closing is sticky: the pending read fails immediately and every later
// operation fails with "use of closed network connection", which callers
// translate back into ctx.Err(). The returned stop function releases the
// watcher; it is safe to call any number of times.
func CloseOnCancel(ctx context.Context, conn net.Conn) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-done:
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

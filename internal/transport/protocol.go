// Package transport is the wire layer of the paper's hardware prototype ("We
// develop a TCP-based socket interface for the communication between the
// server and clients"): a version handshake, length-framed gob messages, a
// deadline-aware codec, and a retrying dial — and nothing else. It owns no
// round loop, no sampling and no aggregation; the one coordinator and the
// one device loop that speak this protocol are engine.ClusterBackend and
// engine.ServeNode, so transport imports none of the model, data or
// orchestration packages.
//
// Every connection opens with a 5-byte handshake — a 4-byte magic followed
// by a protocol version byte, written by both sides and validated before any
// message moves. After the handshake, each gob-encoded message travels in
// one length-prefixed frame (4-byte big-endian length, then the payload),
// bounded by MaxFrameSize so a corrupt or hostile peer cannot force an
// unbounded allocation.
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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Protocol framing constants.
const (
	// ProtocolVersion is the wire-protocol version, bumped on every
	// incompatible change; peers of different versions refuse each other in
	// the handshake. Version 6 retired the uncoordinated prototype session
	// (client-side participation coins and the skip message reporting them).
	ProtocolVersion byte = 6
	// MaxFrameSize bounds a single frame's payload. The largest legitimate
	// frame is a MsgRoundStart carrying the flattened global model; 64 MiB
	// covers ~8M float64 parameters with gob overhead to spare.
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
// error before any gob traffic. The caller manages deadlines.
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
// unbounded allocation; the FuzzDecodeFrame target pins this.
func DecodeFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
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
// values; gob encodes them compactly.
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

// Codec wraps a connection with framed gob encoding and deadlines. Each
// Send stages one gob message in a reusable buffer and ships it as a single
// frame; each Recv pulls frames through a frame-aware reader feeding the gob
// decoder. A Codec is not safe for concurrent use of the same direction.
type Codec struct {
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration
	wbuf    bytes.Buffer
	fr      frameReader
}

// NewCodec wraps conn. timeout bounds each send/receive (0 = no deadline).
func NewCodec(conn net.Conn, timeout time.Duration) (*Codec, error) {
	if conn == nil {
		return nil, errors.New("transport: nil connection")
	}
	c := &Codec{conn: conn, timeout: timeout}
	c.fr.r = conn
	c.enc = gob.NewEncoder(&c.wbuf)
	c.dec = gob.NewDecoder(&c.fr)
	return c, nil
}

// Send writes one message as a single frame.
func (c *Codec) Send(m *Message) error {
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("transport: set write deadline: %w", err)
		}
	}
	c.wbuf.Reset()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	if c.wbuf.Len() > MaxFrameSize {
		// Check the budget before a single byte moves, so an oversized batch
		// fails cleanly instead of desynchronizing the stream — and name the
		// batch size, because for MsgBatchStart/MsgPartial the fix is a
		// smaller group, not a bigger frame limit.
		if n := len(m.Clients); n > 0 {
			return fmt.Errorf("%w: message type %d with batch of %d clients encodes to %d bytes (limit %d)",
				ErrFrameTooLarge, m.Type, n, c.wbuf.Len(), MaxFrameSize)
		}
		return fmt.Errorf("%w: message type %d encodes to %d bytes (limit %d)",
			ErrFrameTooLarge, m.Type, c.wbuf.Len(), MaxFrameSize)
	}
	if err := WriteFrame(c.conn, c.wbuf.Bytes()); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Recv reads one message.
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
// timeout.
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
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return &m, nil
}

// Close closes the underlying connection.
func (c *Codec) Close() error { return c.conn.Close() }

// frameReader feeds the gob decoder the concatenated payloads of successive
// frames, pulling the next frame from the connection only when the current
// one is exhausted. It implements io.ByteReader so the gob decoder uses it
// directly, without a readahead buffer that could block on a frame boundary.
type frameReader struct {
	r       io.Reader
	buf     []byte // reusable frame payload storage
	payload []byte // unread remainder of the current frame
}

func (f *frameReader) Read(p []byte) (int, error) {
	if len(f.payload) == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	n := copy(p, f.payload)
	f.payload = f.payload[n:]
	return n, nil
}

func (f *frameReader) ReadByte() (byte, error) {
	if len(f.payload) == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	b := f.payload[0]
	f.payload = f.payload[1:]
	return b, nil
}

func (f *frameReader) next() error {
	payload, err := DecodeFrame(f.r, f.buf)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		// Our encoder never ships an empty message, so an empty frame is a
		// protocol violation — and accepting it would let a hostile peer spin
		// the decode loop without delivering bytes.
		return errors.New("transport: empty frame")
	}
	if cap(payload) > cap(f.buf) {
		f.buf = payload[:cap(payload)]
	}
	f.payload = payload
	return nil
}

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

// CloseOnCancel closes conn when ctx is cancelled. gob decode loops
// otherwise block unboundedly on a dead or silent peer, and a mere deadline
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

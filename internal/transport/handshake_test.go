package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestHandshakeVersionMismatch pins the clear-error requirement: a peer
// speaking a different protocol version is rejected with ErrVersionMismatch.
func TestHandshakeVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		done <- Handshake(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// A future build: right magic, wrong version.
	preamble := append(append([]byte(nil), handshakeMagic[:]...), ProtocolVersion+1)
	if _, err := conn.Write(preamble); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("want ErrVersionMismatch, got %v", err)
	}
}

// TestHandshakeRejectsAlienPeer: a peer that is not speaking the protocol at
// all fails with ErrBadMagic, not a confusing decode error downstream.
func TestHandshakeRejectsAlienPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		done <- Handshake(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must never
// panic, never allocate beyond MaxFrameSize, and any frame it accepts must
// round-trip bit-exactly through WriteFrame.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: a valid small frame, an empty frame, a truncated frame,
	// and a hostile length prefix.
	var valid bytes.Buffer
	if err := WriteFrame(&valid, []byte("hello, federation")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	_ = WriteFrame(&empty, nil)
	f.Add(empty.Bytes())
	f.Add([]byte{0, 0, 0, 9, 'x'})              // declares 9 bytes, ships 1
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}) // 4 GiB length prefix
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1))

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := DecodeFrame(bytes.NewReader(b), nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("decoder accepted an oversized frame: %d bytes", len(payload))
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		reread, err := DecodeFrame(&out, nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(payload, reread) {
			t.Fatal("frame payload does not round-trip")
		}
	})
}

// TestDecodeFrameReusesBuffer pins the zero-copy contract the codec's frame
// reader depends on: a large-enough scratch buffer is reused, not replaced.
func TestDecodeFrameReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 16)
	payload, err := DecodeFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &scratch[0] {
		t.Fatal("decoder abandoned a large-enough scratch buffer")
	}
	if _, err := DecodeFrame(bytes.NewReader(nil), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty input: want io.EOF, got %v", err)
	}
}

// TestVersionMismatchNamesBothVersions pins the diagnosability requirement
// for mixed-version clusters: the ErrVersionMismatch text carries BOTH the
// peer's version and this build's, so one log line identifies which side of
// a skewed fleet is stale.
func TestVersionMismatchNamesBothVersions(t *testing.T) {
	local, peer := net.Pipe()
	defer func() { _ = local.Close() }()
	defer func() { _ = peer.Close() }()
	go func() {
		defer func() { _ = peer.Close() }()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(peer, buf); err != nil {
			return
		}
		out := append(append([]byte(nil), handshakeMagic[:]...), ProtocolVersion+1)
		_, _ = peer.Write(out)
	}()
	err := Handshake(local)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("want ErrVersionMismatch, got %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf("peer speaks version %d", ProtocolVersion+1),
		fmt.Sprintf("this build speaks %d", ProtocolVersion),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// Package checkpoint makes federated runs durable: it persists the engine's
// canonical run state at round boundaries so a killed process can resume and
// finish the run as if it had never stopped.
//
// The invariant this package exists to uphold is byte-identical resume: a
// run killed after any committed round and resumed from its checkpoint
// produces exactly the trace — every round's participant set, every loss,
// every model coordinate, bit for bit — that the uninterrupted run would
// have produced. This holds because a checkpoint carries everything the
// round loop folds forward and nothing that can be re-derived ambiguously:
// the global model vector, the sampler's RNG stream cursors, every client's
// executor cursor (SGD RNG state and gradient-norm accumulator), and the
// accumulated round history. Determinism of the engine does the rest.
//
// On disk a checkpoint is two files:
//
//   - <path> — the snapshot: magic "UFLK", a version byte, then one
//     length-framed, CRC-32-checked gob payload holding Meta plus the
//     resumable state at the most recent snapshotted boundary. It is
//     replaced atomically (write temp, rename), so a reader never observes
//     a half-written snapshot.
//   - <path>.wal — the trace WAL: magic "UFLW", a version byte, then one
//     length-framed, CRC-checked gob record per committed round, appended
//     before the snapshot is replaced. The WAL is what lets a resumed run
//     reproduce the full history (and therefore the full trace) without
//     recomputing rounds that precede the snapshot.
//
// Commit order is WAL-then-snapshot, so a crash can leave the WAL at most
// ahead of the snapshot, never behind; Resume truncates the WAL back to the
// snapshot's boundary. A torn or corrupt WAL tail (a crash mid-append) is
// likewise truncated; a WAL shorter than the snapshot's boundary is
// corruption and refuses to resume. Snapshots may be thinned with
// Options.Interval — the WAL still gets every round, and resume recomputes
// from the last snapshot, preserving the invariant.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"unbiasedfl/internal/engine"
)

// Format constants. The magic strings keep a snapshot and a WAL from ever
// being confused for each other or for a transport stream.
const (
	snapshotMagic = "UFLK"
	walMagic      = "UFLW"
	// FormatVersion is the on-disk format version; decoding any other
	// version fails with ErrBadVersion. Version 2 added the membership
	// epoch counter to the snapshot.
	FormatVersion byte = 2
	headerLen          = 5 // magic + version byte
	// maxFrame bounds a single frame so corrupt length words cannot drive
	// pathological allocations.
	maxFrame = 1 << 28
)

// Decoding errors. All are wrapped with context; match with errors.Is.
var (
	// ErrBadMagic marks a file that is not a checkpoint artifact at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion marks a checkpoint from an incompatible format version.
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt marks structural damage: CRC mismatch, truncated frame,
	// undecodable payload, or a WAL shorter than its snapshot's boundary.
	ErrCorrupt = errors.New("checkpoint: corrupt")
	// ErrMetaMismatch marks a checkpoint written by a different run
	// configuration than the one trying to resume from it.
	ErrMetaMismatch = errors.New("checkpoint: run metadata mismatch")
	// ErrNoCheckpoint marks a resume from a path with no snapshot.
	ErrNoCheckpoint = errors.New("checkpoint: no snapshot")
)

// Meta identifies the run a checkpoint belongs to. Resume refuses to load a
// snapshot whose Meta differs from the caller's — resuming under a different
// seed, fleet size, or horizon would silently produce a trace belonging to
// neither run.
type Meta struct {
	// Label names the run (scenario name, experiment id); free-form but
	// compared exactly.
	Label string
	// Seed is the run seed every stream derives from.
	Seed uint64
	// Clients is the fleet size.
	Clients int
	// Rounds is the training horizon.
	Rounds int
}

// Snapshot is the decoded form of the snapshot file: the run identity plus
// the resumable state at a committed round boundary. History is not part of
// the snapshot — it is replayed from the WAL.
type Snapshot struct {
	Meta      Meta
	NextRound int
	// Epoch is the membership epoch at the boundary (0 for a fixed-roster
	// run). The roster itself is re-derived from the run's MembershipPlan on
	// resume; the counter cross-checks that replay.
	Epoch   int
	Model   []float64
	Sampler []uint64
	Clients []engine.ClientCursor
}

// appendFrame appends one length|payload|CRC frame to dst.
func appendFrame(dst, payload []byte) []byte {
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], uint32(len(payload)))
	dst = append(dst, word[:]...)
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(word[:], crc32.ChecksumIEEE(payload))
	return append(dst, word[:]...)
}

// errShortFrame distinguishes a truncated tail (tolerated by WAL replay)
// from a CRC failure; both wrap ErrCorrupt for external matching.
var errShortFrame = fmt.Errorf("%w: truncated frame", ErrCorrupt)

// readFrame parses one frame from the front of b, returning the payload and
// the total bytes consumed.
func readFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < 8 {
		return nil, 0, errShortFrame
	}
	ln := binary.BigEndian.Uint32(b)
	if ln > maxFrame {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, ln)
	}
	total := 8 + int(ln)
	if len(b) < total {
		return nil, 0, errShortFrame
	}
	payload = b[4 : 4+ln]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4+ln:]) {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, total, nil
}

// checkHeader validates magic + version.
func checkHeader(b []byte, magic string) error {
	if len(b) < headerLen {
		return fmt.Errorf("%w: %d-byte file", ErrBadMagic, len(b))
	}
	if string(b[:4]) != magic {
		return fmt.Errorf("%w: %q", ErrBadMagic, b[:4])
	}
	if b[4] != FormatVersion {
		return fmt.Errorf("%w: %d (want %d)", ErrBadVersion, b[4], FormatVersion)
	}
	return nil
}

// crcWriter streams bytes through to w while summing them, so a frame's CRC
// and length can be computed without holding the payload.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// crcReader mirrors crcWriter on the read side.
type crcReader struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	cr.n += int64(n)
	return n, err
}

// WriteSnapshot streams s to w in its on-disk byte form — header, frame
// length (patched back once the payload's size is known), gob payload, CRC —
// without ever materializing the encoded snapshot: the gob stream goes
// straight to w through the CRC summer. The client-cursor table dominates a
// large fleet's snapshot, so this bounds commit memory at one encoder buffer
// instead of whole-snapshot copies; at 10^6 cursors that is one ~50MB
// resident copy, not ~150MB, per snapshot cadence.
func WriteSnapshot(w io.WriteSeeker, s *Snapshot) error {
	start, err := w.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("checkpoint: snapshot seek: %w", err)
	}
	var hdr [headerLen + 4]byte // length word patched in afterwards
	copy(hdr[:], snapshotMagic)
	hdr[4] = FormatVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write snapshot header: %w", err)
	}
	cw := &crcWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	if cw.n > maxFrame {
		return fmt.Errorf("checkpoint: snapshot payload %d bytes exceeds frame limit %d", cw.n, maxFrame)
	}
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], cw.crc)
	if _, err := w.Write(word[:]); err != nil {
		return fmt.Errorf("checkpoint: write snapshot CRC: %w", err)
	}
	if _, err := w.Seek(start+headerLen, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: snapshot seek: %w", err)
	}
	binary.BigEndian.PutUint32(word[:], uint32(cw.n))
	if _, err := w.Write(word[:]); err != nil {
		return fmt.Errorf("checkpoint: patch snapshot length: %w", err)
	}
	if _, err := w.Seek(start+headerLen+4+cw.n+4, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: snapshot seek: %w", err)
	}
	return nil
}

// ReadSnapshot parses and validates a snapshot from a stream: the
// client-cursor table decodes directly from r (CRC verified behind the
// decoder), so resuming a million-cursor fleet never holds the raw file
// alongside the decoded state. A frame followed by trailing bytes is
// rejected. It never panics on hostile input: corrupt, truncated, or
// wrong-version bytes return an error.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %d-byte file", ErrBadMagic, n)
		}
		return nil, fmt.Errorf("checkpoint: read snapshot header: %w", err)
	}
	if err := checkHeader(hdr[:], snapshotMagic); err != nil {
		return nil, err
	}
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, errShortFrame
	}
	ln := int64(binary.BigEndian.Uint32(word[:]))
	if ln > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, ln)
	}
	cr := &crcReader{r: io.LimitReader(r, ln)}
	var s Snapshot
	if err := gob.NewDecoder(cr).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: snapshot gob: %v", ErrCorrupt, err)
	}
	// Finish the CRC over any payload bytes the decoder left behind before
	// holding the frame to its declared length and checksum.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, fmt.Errorf("checkpoint: drain snapshot payload: %w", err)
	}
	if cr.n != ln {
		return nil, errShortFrame
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, errShortFrame
	}
	if cr.crc != binary.BigEndian.Uint32(word[:]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, word[:1]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot frame", ErrCorrupt)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate applies the structural invariants every decoded snapshot must
// satisfy.
func (s *Snapshot) validate() error {
	if s.NextRound < 1 || s.NextRound > s.Meta.Rounds {
		return fmt.Errorf("%w: snapshot at round boundary %d of a %d-round run", ErrCorrupt, s.NextRound, s.Meta.Rounds)
	}
	if s.Epoch < 0 {
		return fmt.Errorf("%w: snapshot at negative membership epoch %d", ErrCorrupt, s.Epoch)
	}
	if len(s.Model) == 0 {
		return fmt.Errorf("%w: snapshot with empty model", ErrCorrupt)
	}
	if len(s.Clients) != s.Meta.Clients {
		return fmt.Errorf("%w: %d client cursors for a %d-client run", ErrCorrupt, len(s.Clients), s.Meta.Clients)
	}
	return nil
}

// EncodeWALHeader returns the bytes a fresh (empty) WAL file starts with.
func EncodeWALHeader() []byte {
	return append([]byte(walMagic), FormatVersion)
}

// EncodeWALRecord serializes one committed round's metrics as a WAL frame.
func EncodeWALRecord(m *engine.RoundMetrics) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		return nil, fmt.Errorf("checkpoint: encode WAL record: %w", err)
	}
	return appendFrame(make([]byte, 0, 8+payload.Len()), payload.Bytes()), nil
}

// parseWAL decodes WAL bytes with valid-prefix semantics: it returns every
// record up to the first damaged frame, plus offsets where offsets[i] is the
// byte position after record i (offsets[0] is the header length), so a
// resumer can truncate the file at an exact record boundary. tail is nil for
// a clean end, or the error that stopped the scan (always wrapping
// ErrCorrupt); header-level problems fail outright.
func parseWAL(b []byte) (records []engine.RoundMetrics, offsets []int64, tail error, err error) {
	if err := checkHeader(b, walMagic); err != nil {
		return nil, nil, nil, err
	}
	offsets = append(offsets, int64(headerLen))
	pos := headerLen
	for pos < len(b) {
		payload, n, err := readFrame(b[pos:])
		if err != nil {
			return records, offsets, err, nil
		}
		var m engine.RoundMetrics
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
			return records, offsets, fmt.Errorf("%w: WAL gob: %v", ErrCorrupt, err), nil
		}
		pos += n
		records = append(records, m)
		offsets = append(offsets, int64(pos))
	}
	return records, offsets, nil, nil
}

// DecodeWAL parses WAL bytes and returns the valid prefix of round records.
// A torn or corrupt tail is reported in tail (wrapping ErrCorrupt) alongside
// the records that precede it; a file that is not a WAL at all fails with a
// nil record slice. Never panics on hostile input.
func DecodeWAL(b []byte) (records []engine.RoundMetrics, tail error, err error) {
	records, _, tail, err = parseWAL(b)
	return records, tail, err
}

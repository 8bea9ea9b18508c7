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
// executor cursor (the state of its SGD RNG stream), and the accumulated
// round history. Determinism of the engine does the rest.
//
// On disk a checkpoint is three files:
//
//   - <path> and <path>.1 — the two snapshot slots. Each holds one complete
//     snapshot: magic "UFLK", a version byte, a big-endian length word, the
//     payload, and the payload's big-endian CRC-32. Snapshots alternate
//     between the slots, each overwriting the older slot in place, so the
//     newer one is never touched while the other is written. A slot file is
//     created once, by renaming its fully written first snapshot into place,
//     so every slot file that exists has held a complete frame.
//   - <path>.wal — the trace WAL: magic "UFLW", a version byte, then one
//     length|payload|CRC frame per committed round, appended before the
//     snapshot is written. The WAL is what lets a resumed run reproduce the
//     full history (and therefore the full trace) without recomputing rounds
//     that precede the snapshot.
//
// Payloads are little-endian, in the layout style of internal/transport:
//
//	snapshot   Label                  uint32 count + count bytes
//	           Seed                   uint64
//	           Clients, Rounds        2 × int64 (the rest of Meta)
//	           NextRound, Epoch       2 × int64
//	           Model                  uint32 count + count × float64 bits
//	           Sampler                uint32 count + count × uint64
//	           Clients                uint32 count + count × 32-byte cursor
//	WAL record Round, Participants    2 × int64
//	           Evaluated              1 byte (0 or 1)
//	           GlobalLoss, TestAcc.   2 × float64 bits
//	           ParticipantIDs         uint32 count + count × int64
//
// A cursor is RNG[0..3] (uint64) — the 56-byte wire cursor's first 32 bytes
// (see putCursor). Floats are stored as math.Float64bits, so a resumed model
// is the saved one bit for bit. The encoding is canonical: the decoders
// refuse trailing bytes, non-0/1 flags and counts larger than the bytes left,
// so whatever they accept re-encodes to the identical bytes (an empty section
// decodes as nil).
//
// Commit order is WAL, then snapshot, so a crash can leave the WAL at most
// ahead of the newest snapshot, never behind. Resume reads both slots and
// takes the valid one with the larger boundary; a kill in the middle of a
// slot write leaves that slot failing its CRC, and resume falls back to the
// other slot, one snapshot older, which the WAL already covers. Either way
// Resume truncates the WAL back to the chosen boundary. A torn or corrupt WAL
// tail (a crash mid-append) is likewise truncated; a WAL shorter than the
// snapshot's boundary is corruption and refuses to resume. Snapshots may be
// thinned with Options.Interval — the WAL still gets every round, and resume
// recomputes from the last snapshot, preserving the invariant.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"unbiasedfl/internal/engine"
)

// Format constants. The magic strings keep a snapshot and a WAL from ever
// being confused for each other or for a transport stream.
const (
	snapshotMagic = "UFLK"
	walMagic      = "UFLW"
	// FormatVersion is the on-disk format version; decoding any other
	// version fails with ErrBadVersion. Version 2 added the membership
	// epoch counter to the snapshot; version 3 replaced gob payloads with
	// the fixed little-endian layout in the package comment; version 4 cut
	// the client cursor from 56 to 32 bytes, dropping its gradient-norm
	// accumulator. The WAL record is unchanged since version 3, but a WAL
	// carries the version of the snapshots it was written beside.
	FormatVersion byte = 4
	headerLen          = 5 // magic + version byte
	// maxFrame bounds a single frame so corrupt length words cannot drive
	// pathological allocations.
	maxFrame = 1 << 28
	// chunkSize bounds the buffer a snapshot streams through, written or
	// read, whatever the fleet size.
	chunkSize = 64 << 10
	// cursorSize is one encoded engine.ClientCursor.
	cursorSize = 4 * 8
	// walRecordFixed is a WAL record payload without its participant ids.
	walRecordFixed = 2*8 + 1 + 2*8 + 4
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

// Snapshot is the decoded form of a snapshot slot: the run identity plus
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

// payloadSize is the exact length of s's encoded payload.
func (s *Snapshot) payloadSize() int64 {
	return 4 + int64(len(s.Meta.Label)) + 5*8 +
		4 + 8*int64(len(s.Model)) +
		4 + 8*int64(len(s.Sampler)) +
		4 + cursorSize*int64(len(s.Clients))
}

// encoder streams one frame to w through the fixed buffer buf, summing the
// CRC of the payload bytes as they leave. A write error sticks in err; the
// writes after it only refill buf.
type encoder struct {
	w    io.Writer
	buf  []byte
	from int // buf[from:] is payload not yet summed into crc
	crc  uint32
	err  error
}

func (e *encoder) flush() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf[e.from:])
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf, e.from = e.buf[:0], 0
}

// grab returns room for between 1 and n entries of size bytes at the end of
// buf, flushing it first if not even one fits, and the entry count k.
func (e *encoder) grab(size, n int) (b []byte, k int) {
	if cap(e.buf)-len(e.buf) < size {
		e.flush()
	}
	k = min(n, (cap(e.buf)-len(e.buf))/size)
	l := len(e.buf)
	e.buf = e.buf[:l+k*size]
	return e.buf[l:], k
}

func (e *encoder) word(v uint64) {
	b, _ := e.grab(8, 1)
	binary.LittleEndian.PutUint64(b, v)
}

func (e *encoder) count(n int) {
	b, _ := e.grab(4, 1)
	binary.LittleEndian.PutUint32(b, uint32(n))
}

// encodeSnapshot writes s's whole frame to w through chunk (which must hold
// at least a cursor) and returns the bytes written. The frame length is
// known before the first byte, so w is written front to back, once.
func encodeSnapshot(w io.Writer, chunk []byte, s *Snapshot) (int64, error) {
	size := s.payloadSize()
	if size > maxFrame {
		return 0, fmt.Errorf("checkpoint: snapshot payload %d bytes exceeds frame limit %d", size, maxFrame)
	}
	le := binary.LittleEndian
	e := encoder{w: w, buf: append(chunk[:0], snapshotMagic...)}
	e.buf = append(e.buf, FormatVersion)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(size))
	e.from = len(e.buf)

	label := s.Meta.Label
	e.count(len(label))
	for len(label) > 0 {
		b, k := e.grab(1, len(label))
		label = label[copy(b, label[:k]):]
	}
	e.word(s.Meta.Seed)
	for _, v := range [...]int{s.Meta.Clients, s.Meta.Rounds, s.NextRound, s.Epoch} {
		e.word(uint64(v))
	}
	e.count(len(s.Model))
	for v := s.Model; len(v) > 0; {
		b, k := e.grab(8, len(v))
		for i, x := range v[:k] {
			le.PutUint64(b[8*i:], math.Float64bits(x))
		}
		v = v[k:]
	}
	e.count(len(s.Sampler))
	for v := s.Sampler; len(v) > 0; {
		b, k := e.grab(8, len(v))
		for i, x := range v[:k] {
			le.PutUint64(b[8*i:], x)
		}
		v = v[k:]
	}
	e.count(len(s.Clients))
	for v := s.Clients; len(v) > 0; {
		b, k := e.grab(cursorSize, len(v))
		for i := range v[:k] {
			putCursor(b[cursorSize*i:], &v[i])
		}
		v = v[k:]
	}

	// Sum the last payload bytes, then mark everything in buf as summed so
	// the trailer (and a flush that makes room for it) adds nothing.
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf[e.from:])
	e.from = len(e.buf)
	crc := e.crc
	b, _ := e.grab(4, 1)
	binary.BigEndian.PutUint32(b, crc)
	e.from = len(e.buf)
	e.flush()
	if e.err != nil {
		return 0, fmt.Errorf("checkpoint: write snapshot: %w", e.err)
	}
	return headerLen + 4 + size + 4, nil
}

// putCursor stores one 32-byte cursor: the RNG words, the first 32 bytes of
// the 56-byte transport wire cursor, which goes on to carry gradient
// statistics no snapshot stores. The decoder's count, flag and int checks
// match the wire's, but the code is deliberately not shared: the disk format
// is versioned by FormatVersion and the wire by transport.ProtocolVersion,
// and a file written today must stay readable, or be refused by version,
// whatever the wire protocol becomes. Sharing the helpers would make a wire
// change a silent disk-format change.
func putCursor(b []byte, c *engine.ClientCursor) {
	le := binary.LittleEndian
	for i, w := range c.RNG {
		le.PutUint64(b[8*i:], w)
	}
}

// WriteSnapshot streams s to w in its on-disk byte form — header, length
// word, payload, CRC. The frame length is known before the first byte, so w
// is written front to back and never seeked, through one fixed 64 KiB chunk:
// the memory a snapshot costs does not grow with the client-cursor table.
func WriteSnapshot(w io.WriteSeeker, s *Snapshot) error {
	_, err := encodeSnapshot(w, make([]byte, 0, chunkSize), s)
	return err
}

// decoder reads one payload: from r through the fixed buffer buf when r is
// set (summing the CRC of every byte it reads), or from buf alone. left
// counts the payload bytes not yet read from r. The first violation sticks in
// err and empties the decoder, so the reads after it are harmless and the
// caller checks once, at the end.
type decoder struct {
	r    io.Reader
	buf  []byte
	pos  int // buf[pos:] is read but not yet decoded
	left int64
	crc  uint32
	err  error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf, d.pos, d.left = d.buf[:0], 0, 0
}

func (d *decoder) corrupt(format string, args ...any) {
	d.fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
}

// remaining counts the payload bytes not yet decoded.
func (d *decoder) remaining() int64 { return int64(len(d.buf)-d.pos) + d.left }

// fill makes at least n bytes available at buf[pos:], reading from r.
func (d *decoder) fill(n int) bool {
	have := len(d.buf) - d.pos
	if have >= n {
		return true
	}
	if int64(n-have) > d.left {
		d.fail(errShortFrame)
		return false
	}
	d.buf = d.buf[:copy(d.buf[:cap(d.buf)], d.buf[d.pos:])]
	d.pos = 0
	want := int(min(int64(cap(d.buf)-have), d.left))
	got, err := io.ReadAtLeast(d.r, d.buf[have:have+want], n-have)
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[have:have+got])
	d.buf = d.buf[:have+got]
	d.left -= int64(got)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		d.fail(errShortFrame)
	case err != nil:
		d.fail(fmt.Errorf("checkpoint: read snapshot: %w", err))
	}
	return err == nil
}

// grab returns between 1 and n decoded-next entries of size bytes and the
// entry count k, or k = 0 once the decoder has failed.
func (d *decoder) grab(size, n int) (b []byte, k int) {
	if !d.fill(size) {
		return nil, 0
	}
	k = min(n, (len(d.buf)-d.pos)/size)
	b = d.buf[d.pos : d.pos+k*size]
	d.pos += k * size
	return b, k
}

// take returns the next n bytes, or nil once the decoder has failed.
func (d *decoder) take(n int) []byte {
	b, _ := d.grab(n, 1)
	return b
}

// count reads a section's count prefix and holds it against the payload
// bytes left before anything is sized from it, so a lying prefix cannot cost
// more memory than its frame.
func (d *decoder) count(what string, size int) int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(n)*int64(size) > d.remaining() {
		d.corrupt("%s declares %d entries of %d bytes, %d bytes left", what, n, size, d.remaining())
		return 0
	}
	return int(n)
}

// int narrows a stored int64; the check compiles away where int is 64 bits.
func (d *decoder) int(w uint64) int {
	if v := int64(w); int64(int(v)) != v {
		d.corrupt("integer %d overflows int", v)
	}
	return int(w)
}

func (d *decoder) flag(what string, b byte) bool {
	if b > 1 {
		d.corrupt("%s flag is %d, want 0 or 1", what, b)
	}
	return b == 1
}

// end refuses payload bytes left after the last field.
func (d *decoder) end() {
	if n := d.remaining(); n > 0 {
		d.corrupt("%d trailing payload bytes", n)
	}
}

// section decodes a count-prefixed section of size-byte entries with get;
// an empty section is nil.
func section[T any](d *decoder, what string, size int, get func(b []byte) T) []T {
	n := d.count(what, size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n; {
		b, k := d.grab(size, n-i)
		if k == 0 {
			break
		}
		for j := range out[i : i+k] {
			out[i+j] = get(b[size*j:])
		}
		i += k
	}
	return out
}

func getFloat(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func getWord(b []byte) uint64   { return binary.LittleEndian.Uint64(b) }
func getByte(b []byte) byte     { return b[0] }
func getCursor(b []byte) engine.ClientCursor {
	return engine.ClientCursor{RNG: [4]uint64{getWord(b), getWord(b[8:]), getWord(b[16:]), getWord(b[24:])}}
}

// decodeSnapshot reads a snapshot payload.
func decodeSnapshot(d *decoder) *Snapshot {
	var s Snapshot
	s.Meta.Label = string(section(d, "Label", 1, getByte))
	if h := d.take(5 * 8); h != nil {
		le := binary.LittleEndian
		s.Meta.Seed = le.Uint64(h)
		s.Meta.Clients = d.int(le.Uint64(h[8:]))
		s.Meta.Rounds = d.int(le.Uint64(h[16:]))
		s.NextRound = d.int(le.Uint64(h[24:]))
		s.Epoch = d.int(le.Uint64(h[32:]))
	}
	s.Model = section(d, "Model", 8, getFloat)
	s.Sampler = section(d, "Sampler", 8, getWord)
	s.Clients = section(d, "Clients", cursorSize, getCursor)
	d.end()
	return &s
}

// ReadSnapshot parses and validates a snapshot from a stream through one
// fixed chunk: the client-cursor table decodes directly from r (CRC summed
// as the bytes arrive), so resuming a million-cursor fleet never holds the
// raw file alongside the decoded state. A frame followed by trailing bytes
// is rejected. It never panics on hostile input: corrupt, truncated, or
// wrong-version bytes return an error.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen + 4]byte
	n, err := io.ReadFull(r, hdr[:headerLen])
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %d-byte file", ErrBadMagic, n)
		}
		return nil, fmt.Errorf("checkpoint: read snapshot header: %w", err)
	}
	if err := checkHeader(hdr[:], snapshotMagic); err != nil {
		return nil, err
	}
	word := hdr[headerLen:]
	if _, err := io.ReadFull(r, word); err != nil {
		return nil, errShortFrame
	}
	ln := int64(binary.BigEndian.Uint32(word))
	if ln > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, ln)
	}
	d := decoder{r: r, buf: make([]byte, 0, min(ln, chunkSize)), left: ln}
	s := decodeSnapshot(&d)
	if d.err != nil {
		return nil, d.err
	}
	if _, err := io.ReadFull(r, word); err != nil {
		return nil, errShortFrame
	}
	if d.crc != binary.BigEndian.Uint32(word) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, word[:1]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot frame", ErrCorrupt)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
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

// walHeader returns the bytes a fresh (empty) WAL file starts with.
func walHeader() []byte {
	return append([]byte(walMagic), FormatVersion)
}

// appendWALRecord appends one committed round's metrics to dst as a WAL
// frame; it allocates only when dst lacks the room.
func appendWALRecord(dst []byte, m *engine.RoundMetrics) []byte {
	le := binary.LittleEndian
	dst = binary.BigEndian.AppendUint32(dst, uint32(walRecordFixed+8*len(m.ParticipantIDs)))
	p := len(dst)
	dst = le.AppendUint64(dst, uint64(m.Round))
	dst = le.AppendUint64(dst, uint64(m.Participants))
	var evaluated byte
	if m.Evaluated {
		evaluated = 1
	}
	dst = append(dst, evaluated)
	dst = le.AppendUint64(dst, math.Float64bits(m.GlobalLoss))
	dst = le.AppendUint64(dst, math.Float64bits(m.TestAccuracy))
	dst = le.AppendUint32(dst, uint32(len(m.ParticipantIDs)))
	for _, id := range m.ParticipantIDs {
		dst = le.AppendUint64(dst, uint64(id))
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[p:]))
}

// decodeWALRecord reads one WAL record payload.
func decodeWALRecord(payload []byte) (engine.RoundMetrics, error) {
	d := decoder{buf: payload}
	var m engine.RoundMetrics
	if h := d.take(walRecordFixed - 4); h != nil {
		le := binary.LittleEndian
		m.Round = d.int(le.Uint64(h))
		m.Participants = d.int(le.Uint64(h[8:]))
		m.Evaluated = d.flag("Evaluated", h[16])
		m.GlobalLoss = math.Float64frombits(le.Uint64(h[17:]))
		m.TestAccuracy = math.Float64frombits(le.Uint64(h[25:]))
	}
	m.ParticipantIDs = section(&d, "ParticipantIDs", 8, func(b []byte) int { return d.int(getWord(b)) })
	d.end()
	return m, d.err
}

// parseWAL decodes WAL bytes with valid-prefix semantics: it returns every
// record up to the first damaged frame, plus offsets where offsets[i] is the
// byte position after record i (offsets[0] is the header length), so a
// resumer can truncate the file at an exact record boundary. tail is nil for
// a clean end, or the error that stopped the scan (always wrapping
// ErrCorrupt); header-level problems fail outright. Never panics on hostile
// input.
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
		m, err := decodeWALRecord(payload)
		if err != nil {
			return records, offsets, fmt.Errorf("WAL record %d: %w", len(records), err), nil
		}
		pos += n
		records = append(records, m)
		offsets = append(offsets, int64(pos))
	}
	return records, offsets, nil, nil
}

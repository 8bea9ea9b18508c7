package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"unbiasedfl/internal/engine"
)

// Options tunes checkpoint durability and cost.
type Options struct {
	// Interval snapshots every k-th round boundary (0 or 1 = every round).
	// The WAL still receives every round's record, so a sparse snapshot
	// cadence trades resume recompute for per-round write cost without
	// weakening the byte-identical-resume invariant.
	Interval int
	// Sync flushes the WAL append and the snapshot slot write to stable
	// storage (fsync) at every commit, and the directory when a file is
	// first created there. Off by default: the data reaches the page cache
	// at commit, which a process kill (the failure this package defends
	// against, SIGKILL included) cannot lose — only a machine crash can, and
	// callers who need to survive that pay the sync.
	Sync bool
}

func (o Options) normalized() Options {
	if o.Interval < 1 {
		o.Interval = 1
	}
	return o
}

// Manager owns one checkpoint (two snapshot slots + WAL) for the duration
// of a run. Its Commit method has the engine's OnRoundCommit hook signature,
// so wiring durability into a run is one assignment. Managers are not safe
// for concurrent use; the round loop is sequential.
type Manager struct {
	path string
	meta Meta
	opts Options
	wal  *os.File
	next int // round boundary durably recorded in the WAL

	// slots holds the open snapshot slot files <path> and <path>.1, nil until
	// a slot's first snapshot creates it; at writes each at offset 0 and
	// size is each file's length. older is the slot the next snapshot
	// overwrites.
	slots [2]*os.File
	at    [2]*io.OffsetWriter
	size  [2]int64
	older int
	rec   []byte // the WAL record being appended
	chunk []byte // the buffer a snapshot streams through
}

// WALPath returns the WAL file path for a snapshot path.
func WALPath(path string) string { return path + ".wal" }

// slotPath returns the file of snapshot slot i: <path> or <path>.1.
func slotPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return path + ".1"
}

func newManager(path string, meta Meta, opts Options) *Manager {
	return &Manager{path: path, meta: meta, opts: opts.normalized(), chunk: make([]byte, 0, chunkSize)}
}

// Create starts a fresh checkpoint at path, discarding any prior snapshot
// slots and WAL there.
func Create(path string, meta Meta, opts Options) (*Manager, error) {
	if err := validateMeta(meta); err != nil {
		return nil, err
	}
	for i := range 2 {
		if err := os.Remove(slotPath(path, i)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: clear stale snapshot: %w", err)
		}
	}
	wal, err := os.OpenFile(WALPath(path), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: create WAL: %w", err)
	}
	m := newManager(path, meta, opts)
	m.wal = wal
	if _, err := wal.Write(walHeader()); err != nil {
		_ = m.Close()
		return nil, fmt.Errorf("checkpoint: write WAL header: %w", err)
	}
	if err := m.maybeSync(); err != nil {
		_ = m.Close()
		return nil, err
	}
	return m, nil
}

// Resume loads the checkpoint at path, verifies it belongs to the run
// described by meta, reconciles the WAL with the newest valid snapshot slot
// (truncating a torn tail or records past the snapshot boundary), and
// returns a manager positioned to continue committing plus the state to hand
// the engine via Spec.Resume.
func Resume(path string, meta Meta, opts Options) (*Manager, *engine.RunState, error) {
	if err := validateMeta(meta); err != nil {
		return nil, nil, err
	}
	m := newManager(path, meta, opts)
	st, err := m.resume()
	if err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	return m, st, nil
}

func (m *Manager) resume() (*engine.RunState, error) {
	snap, err := m.openSlots()
	if err != nil {
		return nil, err
	}
	rawWAL, err := os.ReadFile(WALPath(m.path))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot at boundary %d but WAL unreadable: %v", ErrCorrupt, snap.NextRound, err)
	}
	records, offsets, tail, err := parseWAL(rawWAL)
	if err != nil {
		return nil, err
	}
	// The commit order (WAL first, snapshot second) guarantees the WAL is
	// never behind a snapshot that reached disk. A shorter WAL means the
	// history needed to reproduce the trace is gone — refuse.
	if len(records) < snap.NextRound {
		return nil, fmt.Errorf("%w: WAL holds %d rounds, snapshot at boundary %d (tail: %v)",
			ErrCorrupt, len(records), snap.NextRound, tail)
	}
	for i := 0; i < snap.NextRound; i++ {
		if records[i].Round != i {
			return nil, fmt.Errorf("%w: WAL record %d is for round %d", ErrCorrupt, i, records[i].Round)
		}
	}

	if m.wal, err = os.OpenFile(WALPath(m.path), os.O_RDWR, 0o644); err != nil {
		return nil, fmt.Errorf("checkpoint: reopen WAL: %w", err)
	}
	// Drop records past the snapshot (a crash between WAL append and
	// snapshot write, or a torn newer slot) and any torn tail, so appends
	// resume at a clean record boundary.
	if err := m.wal.Truncate(offsets[snap.NextRound]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncate WAL: %w", err)
	}
	if _, err := m.wal.Seek(0, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("checkpoint: seek WAL: %w", err)
	}
	m.next = snap.NextRound
	return &engine.RunState{
		NextRound: snap.NextRound,
		Epoch:     snap.Epoch,
		Model:     snap.Model,
		Sampler:   snap.Sampler,
		Clients:   snap.Clients,
		History:   records[:snap.NextRound],
	}, nil
}

// openSlots opens both snapshot slots and returns the valid snapshot with
// the larger boundary, pointing older at the other slot. A slot that fails
// to decode (a torn write) is passed over; a slot that decodes but belongs
// to another run is refused. With no valid slot the first slot's error is
// returned; with no <path> at all, ErrNoCheckpoint.
func (m *Manager) openSlots() (*Snapshot, error) {
	var best *Snapshot
	var firstErr error
	for i := range m.slots {
		name := slotPath(m.path, i)
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if os.IsNotExist(err) {
			if i == 0 {
				return nil, fmt.Errorf("%w at %s", ErrNoCheckpoint, m.path)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: open snapshot: %w", err)
		}
		m.slots[i], m.at[i] = f, io.NewOffsetWriter(f, 0)
		info, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: stat snapshot: %w", err)
		}
		m.size[i] = info.Size()
		// Stream the decode: a large fleet's cursor table lands directly in
		// the returned state, never alongside a whole-file buffer.
		s, err := ReadSnapshot(f)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			continue
		}
		if s.Meta != m.meta {
			return nil, fmt.Errorf("%w: snapshot %s is %+v, run %+v", ErrMetaMismatch, name, s.Meta, m.meta)
		}
		if best == nil || s.NextRound > best.NextRound {
			best, m.older = s, 1-i
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// Attach resumes the checkpoint at path if a snapshot exists there and
// creates a fresh one otherwise. A nil returned state means a fresh start.
func Attach(path string, meta Meta, opts Options) (*Manager, *engine.RunState, error) {
	m, st, err := Resume(path, meta, opts)
	if errors.Is(err, ErrNoCheckpoint) {
		m, err := Create(path, meta, opts)
		return m, nil, err
	}
	return m, st, err
}

// Commit makes the round boundary in st durable: it appends the just-
// finished round's metrics to the WAL, then (on the snapshot cadence)
// overwrites the older snapshot slot in place. It has the signature of
// engine.Spec.OnRoundCommit and is safe to assign there directly; the
// engine hands it reused state buffers, and everything is written before
// returning, so nothing is retained. Once both slots exist a commit
// allocates nothing.
func (m *Manager) Commit(st *engine.RunState) error {
	if m.wal == nil {
		return errors.New("checkpoint: commit on closed manager")
	}
	if st.NextRound != m.next+1 {
		return fmt.Errorf("checkpoint: commit for boundary %d, WAL at %d", st.NextRound, m.next)
	}
	if len(st.History) != st.NextRound {
		return fmt.Errorf("checkpoint: %d history rounds at boundary %d", len(st.History), st.NextRound)
	}
	last := &st.History[st.NextRound-1]
	if n := walRecordFixed + 8*len(last.ParticipantIDs); n > maxFrame {
		return fmt.Errorf("checkpoint: WAL record of %d bytes exceeds frame limit %d", n, maxFrame)
	}
	m.rec = appendWALRecord(m.rec[:0], last)
	if _, err := m.wal.Write(m.rec); err != nil {
		return fmt.Errorf("checkpoint: append WAL: %w", err)
	}
	if m.opts.Sync {
		if err := m.wal.Sync(); err != nil {
			return fmt.Errorf("checkpoint: sync WAL: %w", err)
		}
	}
	m.next = st.NextRound
	if st.NextRound%m.opts.Interval != 0 && st.NextRound != m.meta.Rounds {
		return nil
	}
	return m.writeSnapshot(&Snapshot{
		Meta:      m.meta,
		NextRound: st.NextRound,
		Epoch:     st.Epoch,
		Model:     st.Model,
		Sampler:   st.Sampler,
		Clients:   st.Clients,
	})
}

// writeSnapshot overwrites the older slot with s at offset 0, so the newer
// slot stays a complete fallback while it is written. A frame shorter than
// the slot file is followed by a truncate; until then the slot carries
// trailing bytes and fails validation, like any torn write.
func (m *Manager) writeSnapshot(s *Snapshot) error {
	i := m.older
	if m.slots[i] == nil {
		if err := m.createSlot(i, s); err != nil {
			return err
		}
	} else {
		_, _ = m.at[i].Seek(0, io.SeekStart)
		n, err := encodeSnapshot(m.at[i], m.chunk, s)
		if err != nil {
			return err
		}
		if n < m.size[i] {
			if err := m.slots[i].Truncate(n); err != nil {
				return fmt.Errorf("checkpoint: truncate snapshot: %w", err)
			}
		}
		m.size[i] = n
		if m.opts.Sync {
			if err := m.slots[i].Sync(); err != nil {
				return fmt.Errorf("checkpoint: sync snapshot: %w", err)
			}
		}
	}
	m.older = 1 - i
	return nil
}

// createSlot writes slot i's first snapshot to a temp file and renames it
// into place, so a kill during a run's first snapshot leaves no slot at all
// rather than a torn one with no fallback. The file stays open as the slot.
func (m *Manager) createSlot(i int, s *Snapshot) error {
	name := slotPath(m.path, i)
	tmp := name + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: create snapshot slot: %w", err)
	}
	n, err := encodeSnapshot(f, m.chunk, s)
	if err == nil && m.opts.Sync {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("checkpoint: sync snapshot: %w", err)
		}
	}
	if err == nil {
		if err = os.Rename(tmp, name); err != nil {
			err = fmt.Errorf("checkpoint: publish snapshot slot: %w", err)
		}
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	m.slots[i], m.at[i], m.size[i] = f, io.NewOffsetWriter(f, 0), n
	return m.maybeSync()
}

// maybeSync fsyncs the checkpoint's directory when Sync is on, making the
// WAL's and a new slot's directory entries durable against machine crashes.
func (m *Manager) maybeSync() error {
	if !m.opts.Sync {
		return nil
	}
	dir, err := os.Open(filepath.Dir(m.path))
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for sync: %w", err)
	}
	defer func() { _ = dir.Close() }()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// NextRound reports the round boundary recorded in the WAL so far.
func (m *Manager) NextRound() int { return m.next }

// Close releases the WAL and slot handles. The snapshots on disk stay
// valid.
func (m *Manager) Close() error {
	var first error
	for _, f := range [...]*os.File{m.wal, m.slots[0], m.slots[1]} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("checkpoint: close: %w", err)
		}
	}
	m.wal, m.slots, m.at = nil, [2]*os.File{}, [2]*io.OffsetWriter{}
	return first
}

func validateMeta(meta Meta) error {
	if meta.Clients < 1 || meta.Rounds < 1 {
		return fmt.Errorf("checkpoint: invalid run metadata %+v", meta)
	}
	return nil
}

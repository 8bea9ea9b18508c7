package checkpoint

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unbiasedfl/internal/engine"
)

var testMeta = Meta{Label: "test-run", Seed: 7, Clients: 2, Rounds: 8}

// fakeState builds a distinguishable run state at the given boundary, with
// history for rounds 0..boundary-1.
func fakeState(boundary int) *engine.RunState {
	st := &engine.RunState{
		NextRound: boundary,
		Model:     []float64{1.5 * float64(boundary), -0.25, float64(boundary)},
		Sampler:   []uint64{11, 22, 33, uint64(boundary)},
		Clients: []engine.ClientCursor{
			{RNG: [4]uint64{1, 2, 3, uint64(boundary + 1)}},
			{RNG: [4]uint64{5, 6, 7, uint64(boundary + 9)}},
		},
	}
	for r := 0; r < boundary; r++ {
		st.History = append(st.History, engine.RoundMetrics{
			Round: r, Participants: 2, ParticipantIDs: []int{0, 1},
			Evaluated: r%2 == 0, GlobalLoss: 0.5 * float64(r), TestAccuracy: 0.1 * float64(r),
		})
	}
	return st
}

// commitThrough creates a checkpoint and commits boundaries 1..k.
func commitThrough(t *testing.T, path string, k int, opts Options) {
	t.Helper()
	m, err := Create(path, testMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= k; b++ {
		if err := m.Commit(fakeState(b)); err != nil {
			t.Fatalf("commit %d: %v", b, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitResumeRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 5, Options{})

	m, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if !reflect.DeepEqual(st, fakeState(5)) {
		t.Fatalf("resumed state differs:\n got %+v\nwant %+v", st, fakeState(5))
	}
	if m.NextRound() != 5 {
		t.Fatalf("manager at boundary %d, want 5", m.NextRound())
	}
}

// TestResumeAfterCrashBetweenWALAndSnapshot simulates the one crash window
// the commit order leaves open: the WAL got round k's record but the
// snapshot still says k-1. Resume must fall back to the snapshot boundary
// and truncate the orphaned record so the next commit lands cleanly.
func TestResumeAfterCrashBetweenWALAndSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 3, Options{})

	orphan := fakeState(4)
	rec := appendWALRecord(nil, &orphan.History[3])
	wal, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write(rec); err != nil {
		t.Fatal(err)
	}
	_ = wal.Close()

	m, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 3 || len(st.History) != 3 {
		t.Fatalf("resumed at boundary %d with %d history rounds, want 3/3", st.NextRound, len(st.History))
	}
	// The orphaned record must be gone: boundary 4 commits fresh.
	if err := m.Commit(fakeState(4)); err != nil {
		t.Fatalf("commit after truncation: %v", err)
	}
	_ = m.Close()
	if _, st, err = Resume(path, testMeta, Options{}); err != nil || st.NextRound != 4 {
		t.Fatalf("re-resume: boundary %d, err %v", st.NextRound, err)
	}
}

// TestResumeTruncatesTornTail: a crash mid-append leaves a half-written
// frame; resume drops it and continues.
func TestResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 3, Options{})
	wal, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{0, 0, 0, 99, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = wal.Close()

	m, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 3 {
		t.Fatalf("boundary %d, want 3", st.NextRound)
	}
	if err := m.Commit(fakeState(4)); err != nil {
		t.Fatalf("commit after torn tail: %v", err)
	}
	_ = m.Close()
}

// TestResumeStopsAtFlippedWALPayload flips one byte inside the GlobalLoss
// of a committed WAL record past the snapshot boundary, leaving its length
// and CRC words alone. The damaged payload still decodes, so only the CRC
// can catch it: the scan must stop at that record, resume must continue from
// the snapshot boundary, and the finished history must equal the
// uninterrupted run's.
func TestResumeStopsAtFlippedWALPayload(t *testing.T) {
	const flipped = 3 // the first record past the boundary-3 snapshot
	opts := Options{Interval: 3}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 5, opts)
	raw, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	_, offsets, _, err := parseWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[offsets[flipped]+4 : offsets[flipped+1]-4]
	payload[17+3] ^= 0x10 // a mantissa byte of GlobalLoss
	if _, err := decodeWALRecord(payload); err != nil {
		t.Fatalf("flipped payload no longer decodes, so the CRC is not what stops it: %v", err)
	}
	if err := os.WriteFile(WALPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	records, _, tail, err := parseWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != flipped || !errors.Is(tail, ErrCorrupt) {
		t.Fatalf("scan kept %d records with tail %v, want %d and ErrCorrupt", len(records), tail, flipped)
	}

	m, st, err := Resume(path, testMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, fakeState(3)) {
		t.Fatalf("resumed state differs from boundary 3: %+v", st)
	}
	for b := 4; b <= testMeta.Rounds; b++ {
		if err := m.Commit(fakeState(b)); err != nil {
			t.Fatalf("commit %d: %v", b, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean.ckpt")
	commitThrough(t, clean, testMeta.Rounds, opts)
	got, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(WALPath(clean))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the finished WAL differs from the uninterrupted run's")
	}
	m, st, err = Resume(path, testMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if want := fakeState(testMeta.Rounds); !reflect.DeepEqual(st, want) {
		t.Fatalf("finished run differs from the uninterrupted one:\n got %+v\nwant %+v", st, want)
	}
}

// TestResumeRefusesShortWAL: a WAL that lost committed records cannot
// reproduce the trace — resume must refuse rather than fabricate history.
func TestResumeRefusesShortWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 4, Options{})
	raw, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	_, offsets, _, err := parseWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(WALPath(path), offsets[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestResumeRefusesMisnumberedWAL: a WAL whose frames are all intact but
// whose record i is not round i's cannot reproduce the trace either.
func TestResumeRefusesMisnumberedWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 4, Options{})
	raw := walHeader()
	for _, m := range fakeState(4).History {
		if m.Round == 2 {
			m.Round = 7
		}
		raw = appendWALRecord(raw, &m)
	}
	records, _, tail, err := parseWAL(raw)
	if err != nil || tail != nil || len(records) != 4 {
		t.Fatalf("rewritten WAL parses to %d records (tail %v, err %v), want 4 clean ones", len(records), tail, err)
	}
	if err := os.WriteFile(WALPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestResumeRejectsMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 2, Options{})
	for name, other := range map[string]Meta{
		"seed":    {Label: testMeta.Label, Seed: 8, Clients: 2, Rounds: 8},
		"label":   {Label: "other", Seed: 7, Clients: 2, Rounds: 8},
		"clients": {Label: testMeta.Label, Seed: 7, Clients: 3, Rounds: 8},
		"rounds":  {Label: testMeta.Label, Seed: 7, Clients: 2, Rounds: 9},
	} {
		if _, _, err := Resume(path, other, Options{}); !errors.Is(err, ErrMetaMismatch) {
			t.Errorf("%s: got %v, want ErrMetaMismatch", name, err)
		}
	}
}

// TestReadSnapshotRejectsDamage: every kind of damage to a snapshot file is
// an error of the matching class, never a panic or a silent success.
func TestReadSnapshotRejectsDamage(t *testing.T) {
	raw := snapshotBytes(t, &Snapshot{Meta: testMeta, NextRound: 3,
		Model: []float64{1, 2}, Sampler: []uint64{1}, Clients: fakeState(3).Clients})
	for name, tc := range map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty":           {func(b []byte) []byte { return nil }, ErrBadMagic},
		"bad-magic":       {func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		"next-version":    {func(b []byte) []byte { b[4] = FormatVersion + 1; return b }, ErrBadVersion},
		"far-version":     {func(b []byte) []byte { b[4] = 99; return b }, ErrBadVersion},
		"flipped-middle":  {func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, ErrCorrupt},
		"flipped-byte-20": {func(b []byte) []byte { b[20] ^= 0x40; return b }, ErrCorrupt},
		"truncated-crc":   {func(b []byte) []byte { return b[:len(b)-3] }, ErrCorrupt},
		"truncated-frame": {func(b []byte) []byte { return b[:len(b)-6] }, ErrCorrupt},
		"trailing-junk":   {func(b []byte) []byte { return append(b, 0xFF) }, ErrCorrupt},
		"trailing-zero":   {func(b []byte) []byte { return append(b, 0) }, ErrCorrupt},
	} {
		b := tc.mutate(append([]byte(nil), raw...))
		if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", name, err, tc.want)
		}
	}
}

// TestResumeOfResume: kill/resume twice; the final history is still the
// uninterrupted sequence.
func TestResumeOfResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 2, Options{})
	m, _, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for b := 3; b <= 5; b++ {
		if err := m.Commit(fakeState(b)); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.Close()
	_, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, fakeState(5)) {
		t.Fatalf("state after resume-of-resume differs: %+v", st)
	}
}

func TestAttach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, st, err := Attach(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("fresh attach returned state %+v", st)
	}
	if err := m.Commit(fakeState(1)); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	m, st, err = Attach(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if st == nil || st.NextRound != 1 {
		t.Fatalf("re-attach returned %+v", st)
	}
}

// TestSnapshotInterval: with Interval 3 the WAL records every round but the
// snapshot lags to the cadence — resume lands on the last snapshot boundary
// and the orphaned WAL records are truncated for recompute.
func TestSnapshotInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 5, Options{Interval: 3})
	m, st, err := Resume(path, testMeta, Options{Interval: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if st.NextRound != 3 || m.NextRound() != 3 {
		t.Fatalf("resumed at boundary %d (manager %d), want 3", st.NextRound, m.NextRound())
	}
	if !reflect.DeepEqual(st, fakeState(3)) {
		t.Fatalf("interval resume state differs: %+v", st)
	}
	// The final boundary always snapshots, cadence or not.
	for b := 4; b <= testMeta.Rounds; b++ {
		if err := m.Commit(fakeState(b)); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err = Resume(path, testMeta, Options{Interval: 3})
	if err != nil || st.NextRound != testMeta.Rounds {
		t.Fatalf("final boundary not snapshotted: %d, %v", st.NextRound, err)
	}
}

func TestCommitRejectsGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := Create(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.Commit(fakeState(2)); err == nil {
		t.Fatal("gap commit accepted")
	}
	if err := m.Commit(fakeState(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(fakeState(1)); err == nil {
		t.Fatal("duplicate commit accepted")
	}
}

func TestSyncOptionCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 2, Options{Sync: true})
	_, st, err := Resume(path, testMeta, Options{})
	if err != nil || st.NextRound != 2 {
		t.Fatalf("sync-mode checkpoint unreadable: %v", err)
	}
}

// TestAttachZeroLengthWAL: a crash inside Create — after the WAL file was
// opened and truncated but before its header reached the disk — leaves a
// zero-length WAL next to no snapshot. Attach must classify that as a fresh
// start and recover cleanly, not error.
func TestAttachZeroLengthWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(WALPath(path), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, st, err := Attach(path, testMeta, Options{})
	if err != nil {
		t.Fatalf("attach over a zero-length WAL: %v", err)
	}
	if st != nil {
		t.Fatalf("zero-length WAL produced state %+v, want fresh start", st)
	}
	if err := m.Commit(fakeState(1)); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	_ = m.Close()
	m, st, err = Attach(path, testMeta, Options{})
	if err != nil || st == nil || st.NextRound != 1 {
		t.Fatalf("re-attach after recovery: state %+v, err %v", st, err)
	}
	_ = m.Close()
}

// TestAttachWALEndingInBareTrailer: a crash can tear a WAL append at any
// byte; the trickiest cut leaves exactly 4 bytes — the size of (and here,
// byte-for-byte equal to) a CRC trailer. Attach must treat it as a torn
// tail, truncate back to the last clean record boundary, and resume.
func TestAttachWALEndingInBareTrailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 3, Options{})
	raw, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	clean := int64(len(raw))
	wal, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Re-append the file's final 4 bytes: a stray, bare CRC trailer.
	if _, err := wal.Write(raw[len(raw)-4:]); err != nil {
		t.Fatal(err)
	}
	_ = wal.Close()

	m, st, err := Attach(path, testMeta, Options{})
	if err != nil {
		t.Fatalf("attach over a bare-trailer tail: %v", err)
	}
	if st == nil || st.NextRound != 3 || len(st.History) != 3 {
		t.Fatalf("resumed state %+v, want boundary 3 with 3 history rounds", st)
	}
	// The torn bytes are gone; the WAL sits at the clean boundary again.
	fi, err := os.Stat(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != clean {
		t.Fatalf("WAL is %d bytes after attach, want %d", fi.Size(), clean)
	}
	if err := m.Commit(fakeState(4)); err != nil {
		t.Fatalf("commit after truncation: %v", err)
	}
	_ = m.Close()
}

// slotBoundaries reads both snapshot slots of path; a missing or invalid
// slot reads as boundary 0.
func slotBoundaries(t *testing.T, path string) [2]int {
	t.Helper()
	var out [2]int
	for i := range out {
		f, err := os.Open(slotPath(path, i))
		if err != nil {
			continue
		}
		if s, err := ReadSnapshot(f); err == nil {
			out[i] = s.NextRound
		}
		_ = f.Close()
	}
	return out
}

// tearCommit leaves what a kill in the middle of boundary b's snapshot write
// leaves: round b-1's WAL record appended, and the first half of boundary
// b's frame written in place over the older slot.
func tearCommit(t *testing.T, path string, b int) {
	t.Helper()
	st := fakeState(b)
	wal, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write(appendWALRecord(nil, &st.History[b-1])); err != nil {
		t.Fatal(err)
	}
	_ = wal.Close()
	at := slotBoundaries(t, path)
	older := 0
	if at[1] < at[0] {
		older = 1
	}
	f, err := os.OpenFile(slotPath(path, older), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := snapshotBytes(t, &Snapshot{Meta: testMeta, NextRound: st.NextRound, Epoch: st.Epoch,
		Model: st.Model, Sampler: st.Sampler, Clients: st.Clients})
	if _, err := f.WriteAt(frame[:len(frame)/2], 0); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
}

// TestSlotsAlternate: snapshots alternate between <path> and <path>.1, each
// slot a complete frame one boundary apart, and no temp file is left behind.
func TestSlotsAlternate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 5, Options{})
	if got := slotBoundaries(t, path); got != [2]int{5, 4} {
		t.Fatalf("slot boundaries %v, want [5 4]", got)
	}
	if tmp, _ := filepath.Glob(path + "*.tmp"); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestResumeFallsBackFromTornSlot: a kill in the middle of the newest
// slot's write leaves it failing its CRC. Resume takes the other slot, one
// boundary older, truncates the WAL to it, and the next commit overwrites
// the torn slot cleanly.
func TestResumeFallsBackFromTornSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 4, Options{})
	tearCommit(t, path, 5)
	if got := slotBoundaries(t, path); got != [2]int{0, 4} {
		t.Fatalf("after the torn write slots read %v, want [0 4]", got)
	}

	m, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, fakeState(4)) {
		t.Fatalf("resumed state differs from boundary 4: %+v", st)
	}
	raw, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if records, _, tail, err := parseWAL(raw); err != nil || tail != nil || len(records) != 4 {
		t.Fatalf("WAL holds %d records (tail %v, err %v), want exactly 4", len(records), tail, err)
	}
	if err := m.Commit(fakeState(5)); err != nil {
		t.Fatalf("commit over the torn slot: %v", err)
	}
	_ = m.Close()
	if got := slotBoundaries(t, path); got != [2]int{5, 4} {
		t.Fatalf("after the recommit slots read %v, want [5 4]", got)
	}
	m, st, err = Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	if !reflect.DeepEqual(st, fakeState(5)) {
		t.Fatalf("re-resumed state differs from boundary 5: %+v", st)
	}
}

// TestResumeRefusesBothSlotsDamaged: with neither slot intact there is no
// state to resume from, and no fresh start either — the checkpoint is
// corrupt.
func TestResumeRefusesBothSlotsDamaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	commitThrough(t, path, 4, Options{})
	for i := range 2 {
		raw, err := os.ReadFile(slotPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(slotPath(path, i), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Resume: got %v, want ErrCorrupt", err)
	}
	if _, _, err := Attach(path, testMeta, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Attach: got %v, want ErrCorrupt", err)
	}
}

// TestResumeRejectsForeignSlot: every slot that decodes is held to the
// run's Meta, not just the one resume would pick.
func TestResumeRejectsForeignSlot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	commitThrough(t, path, 4, Options{})
	foreign := Meta{Label: "other-run", Seed: 7, Clients: 2, Rounds: 8}
	st := fakeState(3)
	raw := snapshotBytes(t, &Snapshot{Meta: foreign, NextRound: st.NextRound,
		Model: st.Model, Sampler: st.Sampler, Clients: st.Clients})
	if err := os.WriteFile(slotPath(path, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("got %v, want ErrMetaMismatch", err)
	}
}

// v2Header is the start of a format-2 snapshot: its header and the first
// bytes of its gob payload.
const v2Header = "55464c4b020000019e5c7f03010108536e617073686f7401ff8000010601044d"

// TestResumeRejectsOldFormats: a snapshot or a WAL of an earlier format —
// the gob payload of version 2, the 56-byte cursors of version 3 — is refused
// by version: by its own reader, by Resume and by Attach. It is never parsed,
// and never mistaken for no checkpoint.
func TestResumeRejectsOldFormats(t *testing.T) {
	v2, err := hex.DecodeString(v2Header)
	if err != nil {
		t.Fatal(err)
	}
	read := func(file string) []byte {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		wal  bool // the bytes replace the WAL, not the snapshot
	}{
		{"v2 snapshot", v2, false},
		{"v3 snapshot", read(v3SnapshotFile), false},
		{"v3 WAL", read(v3WALFile), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			target := path
			var err error
			if tc.wal {
				target = WALPath(path)
				_, _, _, err = parseWAL(tc.raw)
			} else {
				_, err = ReadSnapshot(bytes.NewReader(tc.raw))
			}
			if !errors.Is(err, ErrBadVersion) {
				t.Fatalf("reader: got %v, want ErrBadVersion", err)
			}
			commitThrough(t, path, 1, Options{})
			if err := os.WriteFile(target, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("Resume: got %v, want ErrBadVersion", err)
			}
			if _, _, err := Attach(path, testMeta, Options{}); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("Attach: got %v, want ErrBadVersion", err)
			}
		})
	}
}

// TestResumeWithoutPathIsNoCheckpoint: a checkpoint exists only once
// <path> does. A kill during a run's first snapshot leaves just a temp file
// (and the WAL), and Attach starts the run afresh.
func TestResumeWithoutPathIsNoCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty directory: got %v, want ErrNoCheckpoint", err)
	}
	commitThrough(t, path, 1, Options{})
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, testMeta, Options{}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("temp file only: got %v, want ErrNoCheckpoint", err)
	}
	m, st, err := Attach(path, testMeta, Options{})
	if err != nil || st != nil {
		t.Fatalf("attach: state %+v, err %v; want a fresh start", st, err)
	}
	if err := m.Commit(fakeState(1)); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	if got := slotBoundaries(t, path); got != [2]int{1, 0} {
		t.Fatalf("slots after the fresh start read %v, want [1 0]", got)
	}
}

// TestCommitShrinkingSnapshotTruncatesSlot: a frame shorter than the slot it
// overwrites leaves no stale tail behind.
func TestCommitShrinkingSnapshotTruncatesSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := Create(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 3; b++ {
		st := fakeState(b)
		if b < 3 {
			st.Sampler = append(st.Sampler, 1, 2, 3, 4, 5)
		}
		if err := m.Commit(st); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.Close()
	m, st, err := Resume(path, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	if !reflect.DeepEqual(st, fakeState(3)) {
		t.Fatalf("resumed state differs: %+v", st)
	}
}

package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unbiasedfl/internal/engine"
)

// streamSnapshot builds a snapshot with n client cursors.
func streamSnapshot(n int) *Snapshot {
	cursors := make([]engine.ClientCursor, n)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{RNG: [4]uint64{uint64(i + 1), 2, 3, 4}}
	}
	return &Snapshot{
		Meta:      Meta{Label: "stream", Seed: 9, Clients: n, Rounds: 12},
		NextRound: 3,
		Epoch:     1,
		Model:     []float64{1.5, -2.25, 0.75},
		Sampler:   []uint64{11, 22, 33, 44},
		Clients:   cursors,
	}
}

// snapshotBytes returns the file WriteSnapshot lands on disk for s.
func snapshotBytes(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteSnapshot(f, s); err != nil {
		tb.Fatalf("%d cursors: %v", len(s.Clients), err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// appendOnly is an in-memory io.WriteSeeker that refuses to seek: WriteSnapshot
// writes front to back, once.
type appendOnly struct{ bytes.Buffer }

func (*appendOnly) Seek(int64, int) (int64, error) {
	return 0, errors.New("seek on an append-only buffer")
}

// Committed fixtures: the bytes of streamSnapshot(3), and of goldenWAL(), in
// format version 4. The version-3 files of the same two are kept as inputs
// that every reader must refuse by version.
const (
	goldenSnapshotFile = "testdata/snapshot_v4.golden"
	goldenWALFile      = "testdata/wal_v4.golden"
	v3SnapshotFile     = "testdata/snapshot_v3.golden"
	v3WALFile          = "testdata/wal_v3.golden"
)

// goldenWAL is a WAL of three rounds covering every field: an evaluated and
// an unevaluated round, an empty and a non-empty participant list, a
// negative zero and a NaN payload among the floats.
func goldenWAL() []byte {
	wal := walHeader()
	for _, m := range []engine.RoundMetrics{
		{Round: 0, Participants: 2, ParticipantIDs: []int{0, 2}, Evaluated: true, GlobalLoss: 2.25, TestAccuracy: 0.5},
		{Round: 1, Participants: 0, GlobalLoss: math.Copysign(0, -1), TestAccuracy: math.Float64frombits(0x7ff8000000000abc)},
		{Round: 2, Participants: 3, ParticipantIDs: []int{1, 2, 3}, Evaluated: true, GlobalLoss: 1e-300, TestAccuracy: 1},
	} {
		wal = appendWALRecord(wal, &m)
	}
	return wal
}

// TestWriteSnapshotByteIdentical pins the on-disk snapshot and WAL formats:
// the bytes written for a fixed snapshot and a fixed WAL equal the committed
// ones byte for byte, in any process and any test order. A difference is a
// format change — it needs a FormatVersion bump and new fixtures (the
// failure prints the new bytes in hex).
func TestWriteSnapshotByteIdentical(t *testing.T) {
	for file, got := range map[string][]byte{
		goldenSnapshotFile: snapshotBytes(t, streamSnapshot(3)),
		goldenWALFile:      goldenWAL(),
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("bytes differ from %s (%d vs %d bytes); written now:\n%x", file, len(got), len(want), got)
		}
	}
}

// TestReadWALEquivalent: the committed WAL parses cleanly, record for
// record and bit for bit, into the rounds it was written from.
func TestReadWALEquivalent(t *testing.T) {
	raw, err := os.ReadFile(goldenWALFile)
	if err != nil {
		t.Fatal(err)
	}
	records, offsets, tail, err := parseWAL(raw)
	if err != nil || tail != nil {
		t.Fatalf("parse %s: %v, tail %v", goldenWALFile, err, tail)
	}
	if len(offsets) != 4 || offsets[3] != int64(len(raw)) {
		t.Fatalf("offsets %v for a %d-byte file", offsets, len(raw))
	}
	again := walHeader()
	for i := range records {
		again = appendWALRecord(again, &records[i])
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("%s does not survive a parse and a re-encode", goldenWALFile)
	}
	if records[1].ParticipantIDs != nil || math.Float64bits(records[1].GlobalLoss) != 1<<63 ||
		math.Float64bits(records[1].TestAccuracy) != 0x7ff8000000000abc || !records[2].Evaluated {
		t.Fatalf("records read back as %+v", records)
	}
}

// TestReadSnapshotEquivalent: the committed file, and what WriteSnapshot
// writes at small and large cursor counts, read back equal to the snapshot
// they were written from.
func TestReadSnapshotEquivalent(t *testing.T) {
	f, err := os.Open(goldenSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := streamSnapshot(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s reads back as %+v, want %+v", goldenSnapshotFile, got, want)
	}
	for _, n := range []int{1, 10_000} {
		want := streamSnapshot(n)
		got, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, want)))
		if err != nil {
			t.Fatalf("%d cursors: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cursors: snapshot does not survive a write and a read", n)
		}
	}
}

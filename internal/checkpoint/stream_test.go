package checkpoint

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unbiasedfl/internal/engine"
)

// gob numbers a process's types in order of first use and writes the numbers
// into the stream, so snapshot bytes are only reproducible from a fixed
// order: number Snapshot's types before any test encodes or decodes anything
// else. (A decoder accepts any numbering — only the golden comparison needs
// this.)
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&Snapshot{}); err != nil {
		panic(err)
	}
}

// streamSnapshot builds a snapshot with n client cursors.
func streamSnapshot(n int) *Snapshot {
	cursors := make([]engine.ClientCursor, n)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{
			RNG:     [4]uint64{uint64(i + 1), 2, 3, 4},
			SqCount: i % 7, SqMean: float64(i) * 0.25, SqM2: float64(i) * 0.125,
		}
	}
	return &Snapshot{
		Meta:      Meta{Label: "stream", Seed: 9, Clients: n, Rounds: 12},
		NextRound: 3,
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

// goldenSnapshotFile holds the committed bytes of streamSnapshot(3) in format
// version 2.
const goldenSnapshotFile = "testdata/snapshot_v2.golden"

// TestWriteSnapshotByteIdentical pins the on-disk snapshot format: the file
// written for a fixed snapshot equals the committed one byte for byte. A
// difference is a format change — it needs a FormatVersion bump and a new
// fixture (the failure prints the new bytes in hex).
func TestWriteSnapshotByteIdentical(t *testing.T) {
	want, err := os.ReadFile(goldenSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, streamSnapshot(3)); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes differ from %s (%d vs %d bytes); written now:\n%x",
			goldenSnapshotFile, len(got), len(want), got)
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

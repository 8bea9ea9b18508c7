package checkpoint

import (
	"bytes"
	"os"
	"testing"

	"unbiasedfl/internal/engine"
)

// FuzzDecodeCheckpoint throws arbitrary bytes at both decoders. The
// contract under fuzz: corrupt, truncated, or wrong-version input returns an
// error (or, for a WAL, a clean valid prefix) and never panics; and the
// format is canonical — whatever decodes cleanly, snapshot or WAL,
// re-encodes to the input byte for byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	snap := snapshotBytes(f, &Snapshot{
		Meta:      Meta{Label: "fuzz", Seed: 3, Clients: 1, Rounds: 4},
		NextRound: 2,
		Model:     []float64{0.5, -1.5},
		Sampler:   []uint64{9},
		Clients:   []engine.ClientCursor{{RNG: [4]uint64{1, 2, 3, 4}}},
	})
	f.Add(snap)

	wal := walHeader()
	for r := 0; r < 3; r++ {
		wal = appendWALRecord(wal, &engine.RoundMetrics{Round: r, Participants: 1, ParticipantIDs: []int{0}})
	}
	f.Add(wal)
	f.Add([]byte(nil))
	f.Add([]byte(snapshotMagic))
	f.Add(append([]byte(walMagic), FormatVersion, 0, 0, 0, 200))
	f.Add(func() []byte { b := append([]byte(nil), snap...); b[len(b)-1] ^= 0xFF; return b }())
	f.Add(goldenWAL())
	// Version-3 files, whose cursors are 56 bytes: refused, never parsed.
	for _, file := range []string{v3SnapshotFile, v3WALFile} {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			// Anything that decodes cleanly must satisfy the invariants the
			// resume path relies on, and be the one encoding of itself.
			if s == nil || s.NextRound < 1 || s.NextRound > s.Meta.Rounds ||
				len(s.Model) == 0 || len(s.Clients) != s.Meta.Clients {
				t.Fatalf("decoded snapshot violates invariants: %+v", s)
			}
			var out appendOnly
			if err := WriteSnapshot(&out, s); err != nil {
				t.Fatalf("re-encode snapshot: %v", err)
			}
			if !bytes.Equal(out.Bytes(), b) {
				t.Fatalf("snapshot re-encodes to different bytes:\n got %x\nwant %x", out.Bytes(), b)
			}
		}
		records, offsets, tail, err := parseWAL(b)
		if err != nil {
			return
		}
		// The valid prefix re-encodes to the bytes it was read from, whether
		// or not a damaged tail follows it.
		out := walHeader()
		for i := range records {
			out = appendWALRecord(out, &records[i])
		}
		clean := b[:offsets[len(offsets)-1]]
		if !bytes.Equal(out, clean) {
			t.Fatalf("WAL prefix of %d records re-encodes to different bytes:\n got %x\nwant %x", len(records), out, clean)
		}
		if tail == nil && len(clean) != len(b) {
			t.Fatalf("clean WAL parse stopped at byte %d of %d", len(clean), len(b))
		}
	})
}

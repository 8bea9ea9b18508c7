package checkpoint

import (
	"bytes"
	"testing"

	"unbiasedfl/internal/engine"
)

// FuzzDecodeCheckpoint throws arbitrary bytes at both decoders. The
// contract under fuzz: corrupt, truncated, or wrong-version input returns an
// error (or, for a WAL, a clean valid prefix) — and never panics.
func FuzzDecodeCheckpoint(f *testing.F) {
	snap := snapshotBytes(f, &Snapshot{
		Meta:      Meta{Label: "fuzz", Seed: 3, Clients: 1, Rounds: 4},
		NextRound: 2,
		Model:     []float64{0.5, -1.5},
		Sampler:   []uint64{9},
		Clients:   []engine.ClientCursor{{RNG: [4]uint64{1, 2, 3, 4}, SqCount: 2, SqMean: 0.25}},
	})
	f.Add(snap)

	wal := EncodeWALHeader()
	for r := 0; r < 3; r++ {
		rec, err := EncodeWALRecord(&engine.RoundMetrics{Round: r, Participants: 1, ParticipantIDs: []int{0}})
		if err != nil {
			f.Fatal(err)
		}
		wal = append(wal, rec...)
	}
	f.Add(wal)
	f.Add([]byte(nil))
	f.Add([]byte(snapshotMagic))
	f.Add(append([]byte(walMagic), FormatVersion, 0, 0, 0, 200))
	f.Add(func() []byte { b := append([]byte(nil), snap...); b[len(b)-1] ^= 0xFF; return b }())

	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			// Anything that decodes cleanly must satisfy the invariants the
			// resume path relies on.
			if s == nil || s.NextRound < 1 || s.NextRound > s.Meta.Rounds ||
				len(s.Model) == 0 || len(s.Clients) != s.Meta.Clients {
				t.Fatalf("decoded snapshot violates invariants: %+v", s)
			}
		}
		records, tail, err := DecodeWAL(b)
		if err == nil && tail == nil {
			// Clean decode: re-encoding the records must reproduce the input.
			out := EncodeWALHeader()
			for i := range records {
				rec, err := EncodeWALRecord(&records[i])
				if err != nil {
					t.Fatalf("re-encode record %d: %v", i, err)
				}
				out = append(out, rec...)
			}
			if len(out) != len(b) {
				// gob is not canonical byte-for-byte for arbitrary inputs, so
				// only check that the record count survives a second decode.
				records2, tail2, err2 := DecodeWAL(out)
				if err2 != nil || tail2 != nil || len(records2) != len(records) {
					t.Fatalf("re-encoded WAL does not round-trip: %d vs %d records (%v, %v)",
						len(records2), len(records), err2, tail2)
				}
			}
		}
	})
}

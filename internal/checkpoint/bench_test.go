package checkpoint

import (
	"io"
	"path/filepath"
	"testing"

	"unbiasedfl/internal/engine"
)

// BenchmarkCommit measures one round-boundary commit at large-fleet scale
// (20 clients, a few-thousand-weight model): the WAL append plus, every
// round here (Interval 1, the default), the full snapshot rewrite. This is
// the per-round durability tax a checkpointed run pays on top of training.
func BenchmarkCommit(b *testing.B) {
	const clients, rounds, dim = 20, 1 << 30, 4096
	meta := Meta{Label: "bench", Seed: 1, Clients: clients, Rounds: rounds}
	model := make([]float64, dim)
	for i := range model {
		model[i] = float64(i) * 1e-3
	}
	cursors := make([]engine.ClientCursor, clients)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{
			RNG: [4]uint64{1, 2, 3, uint64(i + 1)}, SqCount: 5, SqMean: 0.5,
		}
	}
	st := &engine.RunState{
		Model:   model,
		Sampler: []uint64{9, 8, 7, 6},
		Clients: cursors,
	}
	mgr, err := Create(filepath.Join(b.TempDir(), "bench.ckpt"), meta, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.NextRound = i + 1
		st.History = append(st.History, engine.RoundMetrics{
			Round: i, Participants: 3, ParticipantIDs: []int{0, 1, 2},
		})
		if err := mgr.Commit(st); err != nil {
			b.Fatal(err)
		}
	}
}

// millionCursorSnapshot builds the fleet-scale snapshot the streaming paths
// exist for: 10^6 client cursors (~50MB of state).
func millionCursorSnapshot() *Snapshot {
	const clients = 1_000_000
	cursors := make([]engine.ClientCursor, clients)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{
			RNG:     [4]uint64{uint64(i), 2, 3, 4},
			SqCount: i % 11, SqMean: float64(i) * 0.5,
		}
	}
	return &Snapshot{
		Meta:      Meta{Label: "fleet", Seed: 7, Clients: clients, Rounds: 8},
		NextRound: 2,
		Model:     make([]float64, 512),
		Sampler:   []uint64{1, 2, 3, 4},
		Clients:   cursors,
	}
}

// discardSeeker satisfies io.WriteSeeker without retaining anything, so the
// benchmark measures the writer's own allocations, not the sink's.
type discardSeeker struct{ pos int64 }

func (d *discardSeeker) Write(p []byte) (int, error) { d.pos += int64(len(p)); return len(p), nil }
func (d *discardSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		d.pos = off
	case io.SeekCurrent:
		d.pos += off
	}
	return d.pos, nil
}

// BenchmarkWriteSnapshotMillion: time and allocations of one streamed
// snapshot at 10^6 client cursors.
func BenchmarkWriteSnapshotMillion(b *testing.B) {
	snap := millionCursorSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSnapshot(&discardSeeker{}, snap); err != nil {
			b.Fatal(err)
		}
	}
}

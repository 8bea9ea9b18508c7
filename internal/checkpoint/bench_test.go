package checkpoint

import (
	"bytes"
	"path/filepath"
	"testing"

	"unbiasedfl/internal/engine"
)

// commitShape sizes a run for the commit benchmarks: the fleet, the model
// and how many clients take part in a round.
type commitShape struct {
	name                  string
	clients, dim, members int
}

var commitShapes = []commitShape{
	// The durable-session workload: 64 clients, all of them in every round,
	// a ~1 700-parameter model.
	{"session-64x1700", 64, 1700, 64},
	// A wider model on a smaller fleet.
	{"model-20x4096", 20, 4096, 3},
}

// commitRun builds a manager in dir and a run state for the shape, with a
// history of rounds boundaries built up front, so a commit loop slices
// history instead of growing it.
func commitRun(tb testing.TB, dir string, sh commitShape, rounds int) (*Manager, *engine.RunState, []engine.RoundMetrics) {
	tb.Helper()
	meta := Meta{Label: "bench", Seed: 1, Clients: sh.clients, Rounds: 1 << 30}
	model := make([]float64, sh.dim)
	for i := range model {
		model[i] = float64(i) * 1e-3
	}
	cursors := make([]engine.ClientCursor, sh.clients)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{RNG: [4]uint64{1, 2, 3, uint64(i + 1)}}
	}
	ids := make([]int, sh.members)
	for i := range ids {
		ids[i] = i
	}
	history := make([]engine.RoundMetrics, rounds)
	for r := range history {
		history[r] = engine.RoundMetrics{Round: r, Participants: len(ids), ParticipantIDs: ids}
	}
	st := &engine.RunState{Model: model, Sampler: []uint64{9, 8, 7, 6}, Clients: cursors}
	mgr, err := Create(filepath.Join(dir, "bench.ckpt"), meta, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return mgr, st, history
}

// BenchmarkCommit measures one round-boundary commit: the WAL append plus,
// every round here (Interval 1, the default), the snapshot written in place
// into the older slot. This is the per-round durability tax a checkpointed
// run pays on top of training.
func BenchmarkCommit(b *testing.B) {
	for _, sh := range commitShapes {
		b.Run(sh.name, func(b *testing.B) {
			mgr, st, history := commitRun(b, b.TempDir(), sh, b.N)
			defer func() { _ = mgr.Close() }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.NextRound, st.History = i+1, history[:i+1]
				if err := mgr.Commit(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCommitAllocs: once both snapshot slots exist, a commit at the
// durable-session shape allocates nothing — the WAL record and the snapshot
// chunk are the manager's own reused buffers.
func TestCommitAllocs(t *testing.T) {
	const warm, runs = 2, 50
	mgr, st, history := commitRun(t, t.TempDir(), commitShapes[0], warm+runs+1)
	defer func() { _ = mgr.Close() }()
	commit := func() {
		b := st.NextRound + 1
		st.NextRound, st.History = b, history[:b]
		if err := mgr.Commit(st); err != nil {
			t.Fatal(err)
		}
	}
	for range warm {
		commit()
	}
	if got := testing.AllocsPerRun(runs, commit); got != 0 {
		t.Fatalf("steady-state commit: %v allocs, want 0", got)
	}
}

// millionCursorSnapshot builds the fleet-scale snapshot the streaming paths
// exist for: 10^6 client cursors (~32MB of state).
func millionCursorSnapshot() *Snapshot {
	const clients = 1_000_000
	cursors := make([]engine.ClientCursor, clients)
	for i := range cursors {
		cursors[i] = engine.ClientCursor{RNG: [4]uint64{uint64(i), 2, 3, 4}}
	}
	return &Snapshot{
		Meta:      Meta{Label: "fleet", Seed: 7, Clients: clients, Rounds: 8},
		NextRound: 2,
		Model:     make([]float64, 512),
		Sampler:   []uint64{1, 2, 3, 4},
		Clients:   cursors,
	}
}

// discard satisfies io.WriteSeeker without retaining anything, so the
// benchmark measures the writer's own allocations, not the sink's.
type discard struct{}

func (discard) Write(p []byte) (int, error)    { return len(p), nil }
func (discard) Seek(int64, int) (int64, error) { return 0, nil }

// BenchmarkWriteSnapshotMillion: time and allocations of one streamed
// snapshot at 10^6 client cursors. B/op is the one fixed chunk, whatever
// the fleet size.
func BenchmarkWriteSnapshotMillion(b *testing.B) {
	snap := millionCursorSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSnapshot(discard{}, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadSnapshotMillion: time and allocations of one streamed read
// at 10^6 client cursors. B/op is the decoded cursor table plus the one
// fixed chunk; the raw frame is never held.
func BenchmarkReadSnapshotMillion(b *testing.B) {
	var raw appendOnly
	if err := WriteSnapshot(&raw, millionCursorSnapshot()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

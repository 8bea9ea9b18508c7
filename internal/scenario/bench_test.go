package scenario

import (
	"context"
	"path/filepath"
	"testing"
)

// benchScenarioRun measures full large-fleet scenario runs (20 clients, 10
// rounds, the library's biggest world) through RunWith under the given
// config. Comparing the checkpointed variant against the plain one yields
// the end-to-end durability overhead (budget: under 5% of round time);
// benchmark/ times the same commit path as checkpoint.commit_s_per_round.
func benchScenarioRun(b *testing.B, cfg func(i int) RunConfig) {
	sc, err := ByName("large-fleet")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(ctx, sc, cfg(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLargeFleetRun(b *testing.B) {
	benchScenarioRun(b, func(int) RunConfig { return RunConfig{} })
}

// BenchmarkLargeFleetRunCheckpointed is the worst-case durability config: a
// full atomic snapshot rewrite at EVERY round boundary (Interval 1, the
// default — finest resume granularity).
func BenchmarkLargeFleetRunCheckpointed(b *testing.B) {
	dir := b.TempDir()
	benchScenarioRun(b, func(i int) RunConfig {
		return RunConfig{Checkpoint: CheckpointConfig{
			Path: filepath.Join(dir, "bench.ckpt"),
		}}
	})
}

// BenchmarkLargeFleetRunCheckpointedThinned amortizes snapshots over every
// 10th boundary while the WAL still captures every round — the config the
// <5% round-time regression gate is measured on. Resume recomputes at most
// Interval-1 rounds and stays byte-identical.
func BenchmarkLargeFleetRunCheckpointedThinned(b *testing.B) {
	dir := b.TempDir()
	benchScenarioRun(b, func(i int) RunConfig {
		return RunConfig{Checkpoint: CheckpointConfig{
			Path:     filepath.Join(dir, "bench.ckpt"),
			Interval: 10,
		}}
	})
}

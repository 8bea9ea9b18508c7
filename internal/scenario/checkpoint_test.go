package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"unbiasedfl/internal/checkpoint"
)

// goldenBytes loads a committed golden trace — the resume tests compare
// against the repository's own ground truth, not a freshly computed run.
func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatalf("missing golden trace: %v", err)
	}
	return b
}

// killAt runs the scenario with a checkpoint and cancels the run the moment
// round k's commit is durable — the in-process stand-in for a process kill
// at an exact round boundary (the CI job delivers a real SIGKILL).
func killAt(t *testing.T, sc Scenario, cfg RunConfig, k int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Checkpoint.AfterCommit = func(rounds int) {
		if rounds == k {
			cancel()
		}
	}
	if _, err := RunWith(ctx, sc, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill at round %d: got %v, want context.Canceled", k, err)
	}
}

// resumeToGolden resumes the checkpointed run to completion and requires the
// finished trace to be byte-identical to the committed golden file.
func resumeToGolden(t *testing.T, sc Scenario, cfg RunConfig, k int) {
	t.Helper()
	cfg.Checkpoint.Resume = true
	cfg.Checkpoint.AfterCommit = nil
	trace, err := RunWith(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("resume after kill at %d: %v", k, err)
	}
	got, err := trace.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenBytes(t, sc.Name)) {
		t.Fatalf("trace resumed from round %d differs from the committed golden — the byte-identical-resume invariant is broken", k)
	}
}

// TestResumeSweepMatchesGolden is the tentpole invariant, exhaustively: kill
// a checkpointed run at EVERY round boundary and resume it; the finished
// trace must match the committed golden byte-for-byte every time. Swept on
// the clean baseline and on the mixed storm (stragglers + dropouts + churn
// at once), whose fault streams make the cursor bookkeeping earn its keep.
func TestResumeSweepMatchesGolden(t *testing.T) {
	for _, name := range []string{"baseline", "mixed"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < sc.Rounds; k++ {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				cfg := RunConfig{Checkpoint: CheckpointConfig{Path: path}}
				killAt(t, sc, cfg, k)
				resumeToGolden(t, sc, cfg, k)
			}
		})
	}
}

// tearNewestSlot damages the newer of the checkpoint's two snapshot slots
// the way a kill in the middle of its in-place write does: the first half
// holds the new frame, the rest never arrived. It returns the boundary of
// the slot left intact.
func tearNewestSlot(t *testing.T, path string) int {
	t.Helper()
	var at [2]int
	slots := [2]string{path, path + ".1"}
	for i, name := range slots {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := checkpoint.ReadSnapshot(f)
		_ = f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		at[i] = s.NextRound
	}
	newest, older := 0, 1
	if at[1] > at[0] {
		newest, older = 1, 0
	}
	raw, err := os.ReadFile(slots[newest])
	if err != nil {
		t.Fatal(err)
	}
	clear(raw[len(raw)/2:])
	if err := os.WriteFile(slots[newest], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return at[older]
}

// TestResumeFromTornSlotMatchesGolden: a run killed in the middle of
// writing boundary k's snapshot resumes from the other slot, boundary k-1,
// recomputes round k-1 from it, and still finishes byte-identical to the
// committed golden — at every boundary where two slots exist.
func TestResumeFromTornSlotMatchesGolden(t *testing.T) {
	sc, err := ByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k < sc.Rounds; k++ {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cfg := RunConfig{Checkpoint: CheckpointConfig{Path: path}}
		killAt(t, sc, cfg, k)
		if got := tearNewestSlot(t, path); got != k-1 {
			t.Fatalf("kill at %d: intact slot at boundary %d, want %d", k, got, k-1)
		}
		resumeToGolden(t, sc, cfg, k)
	}
}

// TestResumeEveryScenarioBothBackends kills every library scenario at a
// mid-run boundary and resumes it on both execution substrates: the
// in-process pool and the real TCP cluster. Each resumed trace must equal
// the committed golden. Two legs additionally cross backends (kill local,
// resume cluster, and vice versa) — a checkpoint is backend-portable.
func TestResumeEveryScenarioBothBackends(t *testing.T) {
	cluster := ClusterConfig{Timeout: 30 * time.Second}
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			k := sc.Rounds / 2
			killBackend, resumeBackend := BackendLocal, BackendLocal
			switch sc.Name {
			case "baseline":
				killBackend, resumeBackend = BackendLocal, BackendCluster
			case "mixed":
				killBackend, resumeBackend = BackendCluster, BackendLocal
			}

			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg := RunConfig{Backend: killBackend, Cluster: cluster, Checkpoint: CheckpointConfig{Path: path}}
			killAt(t, sc, cfg, k)
			cfg.Backend = resumeBackend
			resumeToGolden(t, sc, cfg, k)

			// Second leg: the same kill carried entirely by the cluster.
			path2 := filepath.Join(t.TempDir(), "run2.ckpt")
			cfg2 := RunConfig{Backend: BackendCluster, Cluster: cluster, Checkpoint: CheckpointConfig{Path: path2}}
			killAt(t, sc, cfg2, k)
			resumeToGolden(t, sc, cfg2, k)
		})
	}
}

// TestCheckpointRejectsForeignScenario: a checkpoint written by one scenario
// must refuse to resume another.
func TestCheckpointRejectsForeignScenario(t *testing.T) {
	baseline, err := ByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := RunConfig{Checkpoint: CheckpointConfig{Path: path}}
	killAt(t, baseline, cfg, 3)
	cfg.Checkpoint.Resume = true
	if _, err := RunWith(context.Background(), mixed, cfg); err == nil {
		t.Fatal("mixed resumed from a baseline checkpoint")
	}
}

// TestCheckpointedRunMatchesPlainRun: checkpointing must be observation-free
// — a run that commits every round produces the same trace as one that
// never checkpoints.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	sc, err := ByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	trace, err := RunWith(context.Background(), sc, RunConfig{Checkpoint: CheckpointConfig{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenBytes(t, sc.Name)) {
		t.Fatal("checkpointing perturbed the trace")
	}
}

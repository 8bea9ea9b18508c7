package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"unbiasedfl/internal/stats"
)

// faultFreeSampler builds the fault-composed sampler over a clean schedule,
// so resume tests exercise its two-stream SamplerState/RestoreSamplerState
// path.
func faultFreeSampler(q []float64, seed uint64) *BernoulliSampler {
	root := stats.NewRNG(seed)
	return NewFaultSampler(q, NewFaultSchedule(len(q)), root.Split(), root.Split())
}

// captureAt runs the spec to completion, cloning the committed RunState at
// the given round boundary along the way, and returns both the full result
// and the captured state.
func captureAt(t *testing.T, spec Spec, backend ExecutionBackend, boundary int) (*RunResult, *RunState) {
	t.Helper()
	var captured *RunState
	spec.OnRoundCommit = func(st *RunState) error {
		if st.NextRound == boundary {
			captured = st.Clone()
		}
		return nil
	}
	res, err := Run(context.Background(), spec, backend)
	if err != nil {
		t.Fatal(err)
	}
	if boundary > 0 && captured == nil {
		t.Fatalf("no commit at boundary %d", boundary)
	}
	return res, captured
}

// mustMatch compares two run results bit-for-bit.
func mustMatch(t *testing.T, want, got *RunResult) {
	t.Helper()
	if len(want.FinalModel) != len(got.FinalModel) {
		t.Fatalf("model length %d vs %d", len(want.FinalModel), len(got.FinalModel))
	}
	for j := range want.FinalModel {
		if math.Float64bits(want.FinalModel[j]) != math.Float64bits(got.FinalModel[j]) {
			t.Fatalf("model[%d]: %v vs %v", j, want.FinalModel[j], got.FinalModel[j])
		}
	}
	if len(want.History) != len(got.History) {
		t.Fatalf("history length %d vs %d", len(want.History), len(got.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		if w.Round != g.Round || w.Participants != g.Participants || w.Evaluated != g.Evaluated ||
			math.Float64bits(w.GlobalLoss) != math.Float64bits(g.GlobalLoss) ||
			math.Float64bits(w.TestAccuracy) != math.Float64bits(g.TestAccuracy) {
			t.Fatalf("round %d metrics differ: %+v vs %+v", i, w, g)
		}
		if len(w.ParticipantIDs) != len(g.ParticipantIDs) {
			t.Fatalf("round %d participants %v vs %v", i, w.ParticipantIDs, g.ParticipantIDs)
		}
		for k := range w.ParticipantIDs {
			if w.ParticipantIDs[k] != g.ParticipantIDs[k] {
				t.Fatalf("round %d participants %v vs %v", i, w.ParticipantIDs, g.ParticipantIDs)
			}
		}
	}
}

// TestResumeBitIdenticalLocal is the core durability invariant at engine
// level: kill a run at every round boundary, resume from the committed
// state, and the remainder must be bit-identical to the uninterrupted run.
func TestResumeBitIdenticalLocal(t *testing.T) {
	const rounds = 10
	fed := testFederation(t, 29, 5)
	m := testModel(t, fed)
	q := []float64{0.9, 0.6, 0.8, 0.7, 0.5}
	mkSpec := func() Spec {
		spec := testSpec(t, fed, m, rounds, faultFreeSampler(q, 13))
		spec.EvalEvery = 3
		return spec
	}
	full, _ := captureAt(t, mkSpec(), NewLocalBackend(LocalOptions{Parallel: true}), 0)

	for k := 1; k <= rounds; k++ {
		_, st := captureAt(t, mkSpec(), NewLocalBackend(LocalOptions{Parallel: true}), k)
		spec := mkSpec()
		spec.Resume = st
		res, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{Parallel: true}))
		if err != nil {
			t.Fatalf("resume at %d: %v", k, err)
		}
		mustMatch(t, full, res)
	}
}

// TestResumeBitIdenticalCluster kills at a mid-run boundary and resumes on
// a real TCP cluster — and cross-resumes a locally captured state on the
// cluster backend, pinning that checkpoints are backend-agnostic.
func TestResumeBitIdenticalCluster(t *testing.T) {
	const rounds, boundary = 8, 3
	fed := testFederation(t, 31, 4)
	m := testModel(t, fed)
	q := []float64{0.9, 0.7, 0.8, 0.6}
	mkSpec := func() Spec {
		spec := testSpec(t, fed, m, rounds, faultFreeSampler(q, 17))
		spec.EvalEvery = 2
		return spec
	}
	mkCluster := func() *ClusterBackend {
		return NewClusterBackend(ClusterOptions{Timeout: 20 * time.Second})
	}
	full, _ := captureAt(t, mkSpec(), mkCluster(), 0)

	_, clusterState := captureAt(t, mkSpec(), mkCluster(), boundary)
	_, localState := captureAt(t, mkSpec(), NewLocalBackend(LocalOptions{}), boundary)

	for name, tc := range map[string]struct {
		st      *RunState
		backend ExecutionBackend
	}{
		"cluster-to-cluster": {clusterState, mkCluster()},
		"local-to-cluster":   {localState, mkCluster()},
		"cluster-to-local":   {clusterState, NewLocalBackend(LocalOptions{Parallel: true})},
	} {
		spec := mkSpec()
		spec.Resume = tc.st
		res, err := Run(context.Background(), spec, tc.backend)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustMatch(t, full, res)
	}
}

// TestResumeAtHorizonReturnsCompletedRun: resuming a state committed at the
// final boundary executes zero rounds and reproduces the finished result.
func TestResumeAtHorizonReturnsCompletedRun(t *testing.T) {
	const rounds = 6
	fed := testFederation(t, 37, 3)
	m := testModel(t, fed)
	q := []float64{0.9, 0.8, 0.7}
	mkSpec := func() Spec {
		return testSpec(t, fed, m, rounds, faultFreeSampler(q, 23))
	}
	full, st := captureAt(t, mkSpec(), NewLocalBackend(LocalOptions{}), rounds)
	spec := mkSpec()
	spec.Resume = st
	res, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, full, res)
}

// TestResumeValidation pins the guard rails on malformed resume states. An
// all-zero cursor is refused up front, naming the client, for both backends:
// a cluster run is refused before its listener opens or any node boots.
func TestResumeValidation(t *testing.T) {
	fed := testFederation(t, 41, 3)
	m := testModel(t, fed)
	q := []float64{0.9, 0.8, 0.7}
	mkSpec := func() Spec {
		return testSpec(t, fed, m, 4, faultFreeSampler(q, 29))
	}
	_, st := captureAt(t, mkSpec(), NewLocalBackend(LocalOptions{}), 2)

	for name, corrupt := range map[string]func(*RunState){
		"round-beyond-horizon": func(r *RunState) { r.NextRound = 99 },
		"negative-round":       func(r *RunState) { r.NextRound = -1 },
		"model-length":         func(r *RunState) { r.Model = r.Model[:len(r.Model)-1] },
		"history-mismatch":     func(r *RunState) { r.History = r.History[:1] },
		"cursor-count":         func(r *RunState) { r.Clients = r.Clients[:1] },
		"non-finite-model":     func(r *RunState) { r.Model[0] = math.NaN() },
		"sampler-words":        func(r *RunState) { r.Sampler = r.Sampler[:3] },
		"missing-cursors":      func(r *RunState) { r.Clients = nil },
		"zero-cursor":          func(r *RunState) { r.Clients[1].RNG = [4]uint64{} },
	} {
		bad := st.Clone()
		corrupt(bad)
		spec := mkSpec()
		spec.Resume = bad
		if _, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{})); err == nil {
			t.Errorf("%s: corrupted resume state accepted", name)
		}
	}

	bad := st.Clone()
	bad.Clients[1].RNG = [4]uint64{}
	spec := mkSpec()
	spec.Resume = bad
	cluster := NewClusterBackend(ClusterOptions{Timeout: 10 * time.Second})
	_, err := Run(context.Background(), spec, cluster)
	if err == nil || !strings.Contains(err.Error(), "client 1") {
		t.Fatalf("cluster run from a zero cursor for client 1: error %v", err)
	}
	if cluster.listener != nil || cluster.slots != nil {
		t.Fatal("cluster backend opened before the zero cursor was refused")
	}
}

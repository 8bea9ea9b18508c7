package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
	"unbiasedfl/internal/transport"
)

// hierQ is the participation vector the hierarchy tests share.
var hierQ = []float64{0.9, 0.7, 0.8, 0.6, 0.5, 0.95, 0.4}

// requireSameRun fails unless two results are bit-identical: final model,
// per-client gradient statistics, and full round histories including the
// participant sets.
func requireSameRun(t *testing.T, name string, want, got *RunResult) {
	t.Helper()
	for j := range want.FinalModel {
		if math.Float64bits(want.FinalModel[j]) != math.Float64bits(got.FinalModel[j]) {
			t.Fatalf("%s: model[%d]: %v vs %v — grouping changed the arithmetic",
				name, j, want.FinalModel[j], got.FinalModel[j])
		}
	}
	if len(want.History) != len(got.History) {
		t.Fatalf("%s: history length %d vs %d", name, len(want.History), len(got.History))
	}
	for i := range want.History {
		wh, gh := want.History[i], got.History[i]
		if wh.Participants != gh.Participants ||
			math.Float64bits(wh.GlobalLoss) != math.Float64bits(gh.GlobalLoss) ||
			math.Float64bits(wh.TestAccuracy) != math.Float64bits(gh.TestAccuracy) {
			t.Fatalf("%s: round %d metrics differ: %+v vs %+v", name, i, wh, gh)
		}
		if len(wh.ParticipantIDs) != len(gh.ParticipantIDs) {
			t.Fatalf("%s: round %d participants %v vs %v", name, i, wh.ParticipantIDs, gh.ParticipantIDs)
		}
		for k := range wh.ParticipantIDs {
			if wh.ParticipantIDs[k] != gh.ParticipantIDs[k] {
				t.Fatalf("%s: round %d participants %v vs %v", name, i, wh.ParticipantIDs, gh.ParticipantIDs)
			}
		}
	}
}

// TestHierarchicalMatchesFlat is the tentpole gate: the same spec run flat
// and run hierarchically — any group size, serial or pooled, local or over
// real TCP sockets — must produce bit-identical results, because the
// fixed-point fold is independent of grouping.
func TestHierarchicalMatchesFlat(t *testing.T) {
	fed := testFederation(t, 29, 7)
	m := testModel(t, fed)
	mk := func(groupSize int) Spec {
		sampler := bernoulliSampler(t, hierQ, 23)
		spec := testSpec(t, fed, m, 8, sampler)
		spec.GroupSize = groupSize
		return spec
	}
	flat, err := Run(context.Background(), mk(0), NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 7} {
		pooled, err := Run(context.Background(), mk(k), NewLocalBackend(LocalOptions{Parallel: true}))
		if err != nil {
			t.Fatalf("local pooled K=%d: %v", k, err)
		}
		requireSameRun(t, "local pooled", flat, pooled)
		serial, err := Run(context.Background(), mk(k), NewLocalBackend(LocalOptions{}))
		if err != nil {
			t.Fatalf("local serial K=%d: %v", k, err)
		}
		requireSameRun(t, "local serial", flat, serial)
	}

	// Cluster group mode: 7 clients at K=3 must multiplex onto exactly
	// ⌈7/3⌉ = 3 sockets, and the wire must not change the arithmetic.
	backend := NewClusterBackend(ClusterOptions{Timeout: 20 * time.Second})
	spec := mk(3)
	maxSockets := 0
	spec.OnRound = func(RoundMetrics) {
		if s := backend.Sockets(); s > maxSockets {
			maxSockets = s
		}
	}
	cluster, err := Run(context.Background(), spec, backend)
	if err != nil {
		t.Fatalf("cluster K=3: %v", err)
	}
	requireSameRun(t, "cluster", flat, cluster)
	if maxSockets == 0 || maxSockets > 3 {
		t.Fatalf("cluster used %d sockets for a 7-client fleet at K=3, want 1..3", maxSockets)
	}
}

// TestHierarchicalTamperMatchesFlat: a poison table is folded inside the
// group where the update runs — from the trained parameters, by the task's
// factor — and on the flat path by scaling the returned delta; being a pure
// function of (client, round) it must leave hierarchical runs, in process and
// over sockets, bit-identical to flat ones.
func TestHierarchicalTamperMatchesFlat(t *testing.T) {
	fed := testFederation(t, 31, 6)
	m := testModel(t, fed)
	mk := func(groupSize int) Spec {
		sampler := bernoulliSampler(t, []float64{0.9, 0.7, 0.8, 0.6, 0.5, 0.95}, 41)
		spec := testSpec(t, fed, m, 6, sampler)
		spec.GroupSize = groupSize
		spec.Poison = []Poison{{Client: 2, Factor: -3}, {Client: 5, Factor: 2.5, FromRound: 3}}
		return spec
	}
	flat, err := Run(context.Background(), mk(0), NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Run(context.Background(), mk(2), NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "poisoned", flat, hier)
	honest := mk(0)
	honest.Poison = nil
	clean, err := Run(context.Background(), honest, NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(clean.FinalModel[0]) == math.Float64bits(flat.FinalModel[0]) {
		t.Fatal("the poison table left the model as the honest run's")
	}
	cluster, err := Run(context.Background(), mk(2), NewClusterBackend(ClusterOptions{Timeout: 20 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "poisoned cluster", flat, cluster)
}

// TestHierarchicalNeedsCapableBackend pins the orchestrator's gating: a
// GroupSize above one demands a PartialBackend and the Lemma-1 aggregator.
func TestHierarchicalNeedsCapableBackend(t *testing.T) {
	fed := testFederation(t, 37, 4)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 2, fullSampler(t, 4))
	spec.GroupSize = 2
	spec.Aggregator = ProportionalAggregator{}
	if _, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{})); err == nil {
		t.Fatal("expected an error for hierarchical dispatch with a non-Lemma-1 aggregator")
	}
	spec.Aggregator = UnbiasedAggregator{}
	if _, err := Run(context.Background(), spec, flatOnlyBackend{NewLocalBackend(LocalOptions{})}); err == nil {
		t.Fatal("expected an error for hierarchical dispatch on a flat-only backend")
	}
}

// flatOnlyBackend hides LocalBackend's PartialBackend implementation
// (explicit delegation — embedding would promote DispatchPartials too).
type flatOnlyBackend struct{ inner *LocalBackend }

func (b flatOnlyBackend) Open(ctx context.Context, s *Spec) error { return b.inner.Open(ctx, s) }
func (b flatOnlyBackend) Close() error                            { return b.inner.Close() }
func (b flatOnlyBackend) Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []ClientTask) ([]ClientUpdate, error) {
	return b.inner.Dispatch(ctx, round, global, tasks)
}

// TestClusterGroupHalfOpenPeerForfeitsRound is the multiplexed half-open
// regression: a group node that hangs past the round deadline (a stalled
// batch, connection still open) must forfeit the round for every member it
// was tasked with, be severed and revived, and leave the rest of the fleet
// — and the run — intact.
func TestClusterGroupHalfOpenPeerForfeitsRound(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	fed := testFederation(t, 43, 6)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 6, fullSampler(t, 6))
	spec.GroupSize = 3
	backend := NewClusterBackend(ClusterOptions{
		Timeout:      20 * time.Second,
		RoundTimeout: 300 * time.Millisecond,
		NodeFault: func(client, round int) transport.RoundFault {
			if round == 1 && client == 4 {
				// One member of group 1 hangs far past the deadline: the whole
				// group's socket is half-open from the coordinator's view.
				return transport.RoundFault{Delay: 5 * time.Second}
			}
			return transport.RoundFault{}
		},
	})
	// The remaining rounds take microseconds; hold the coordinator after the
	// forfeited round until the background revival has registered.
	spec.OnRound = holdAfter(backend, 1, 2)
	res, err := Run(context.Background(), spec, backend)
	if err != nil {
		t.Fatal(err)
	}
	// Group granularity: a round either has the whole fleet or lost exactly
	// group 1 (clients 3,4,5 forfeit together). Round 0 is clean, round 1
	// must have lost the group, and the revived node must be back by the end.
	for _, mrt := range res.History {
		if mrt.Participants != 6 && mrt.Participants != 3 {
			t.Fatalf("round %d had %d participants, want 3 or 6 (group granularity)",
				mrt.Round, mrt.Participants)
		}
		if mrt.Round == 0 && mrt.Participants != 6 {
			t.Fatalf("round 0 had %d participants before any fault", mrt.Participants)
		}
		if mrt.Round == 1 && mrt.Participants != 3 {
			t.Fatalf("round 1 had %d participants, want 3 (group 1 hung)", mrt.Participants)
		}
	}
	if last := res.History[len(res.History)-1]; last.Participants != 6 {
		t.Fatalf("final round had %d participants; group 1 never recovered", last.Participants)
	}
	h := backend.Health()
	for n := 0; n < 3; n++ {
		if h.Misses[n] != 0 {
			t.Fatalf("group 0 member %d ledgered %d misses (%v)", n, h.Misses[n], h.Misses)
		}
	}
	for n := 3; n < 6; n++ {
		if h.Misses[n] == 0 {
			t.Fatalf("group 1 member %d ledgered no miss (%v)", n, h.Misses)
		}
		if h.Respawns[n] == 0 {
			t.Fatalf("group 1 member %d was never respawned: %v", n, h.Respawns)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

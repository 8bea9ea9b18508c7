package scenario

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/testutil"
)

// TestBackendEquivalenceMatrix is the payoff of the unified engine: every
// golden-library scenario replays through BOTH execution backends — the
// in-process LocalBackend and the real-TCP ClusterBackend — at GOMAXPROCS 1
// and 4, flat and hierarchical (GroupSize 3), and every trace must be
// byte-for-byte identical (and, via the golden files, identical to the
// committed record). The golden traces are one backend-equivalence matrix,
// not disjoint suites.
func TestBackendEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster boots; skipped with -short")
	}
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			var reference []byte
			for _, procs := range []int{1, 4} {
				for _, cfg := range []RunConfig{
					{Backend: BackendLocal},
					{Backend: BackendLocal, GroupSize: 3},
					{Backend: BackendCluster, Cluster: ClusterConfig{Timeout: 30 * time.Second}},
					{Backend: BackendCluster, GroupSize: 3, Cluster: ClusterConfig{Timeout: 30 * time.Second}},
				} {
					prev := runtime.GOMAXPROCS(procs)
					trace, err := RunWith(context.Background(), sc, cfg)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatalf("%v K=%d GOMAXPROCS=%d: %v", cfg.Backend, cfg.GroupSize, procs, err)
					}
					b, err := trace.Canonical()
					if err != nil {
						t.Fatal(err)
					}
					if reference == nil {
						reference = b
						continue
					}
					if !bytes.Equal(reference, b) {
						t.Fatalf("%v K=%d GOMAXPROCS=%d trace diverges from the flat local GOMAXPROCS=1 reference: the backends are not equivalent",
							cfg.Backend, cfg.GroupSize, procs)
					}
				}
			}
			// The reference is also pinned against the committed golden, so a
			// matrix-wide drift cannot silently self-agree.
			testutil.Golden(t, sc.Name+".json", reference, false)
			testutil.WaitNoLeaks(t, baseline, 10*time.Second)
		})
	}
}

// clusterScenario is a 3-node fleet small enough for a TCP round-trip suite
// under -race.
func clusterScenario(faults []ClientFault) Scenario {
	return Scenario{
		Name:        "cluster-smoke",
		Description: "3-node loopback federation for the cluster harness tests",
		Setup:       experiment.Setup2,
		Clients:     3, TotalSamples: 240,
		Rounds: 6, LocalSteps: 2, BatchSize: 6,
		Seed:   77,
		Faults: faults,
	}
}

// TestClusterFaultedThreeNode boots a real TCP federation with a scheduled
// mid-run dropout, a straggler, and a flaky device, and verifies the trace
// matches the in-process run byte-for-byte — faults and all — with nothing
// leaked.
func TestClusterFaultedThreeNode(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	sc := clusterScenario([]ClientFault{
		{Client: 0, Kind: FaultStraggler, DelayFactor: 3},
		{Client: 1, Kind: FaultFlaky, Availability: 0.5},
		{Client: 2, Kind: FaultDropout, Round: 2},
	})
	cluster, err := RunWith(context.Background(), sc, RunConfig{Backend: BackendCluster, Cluster: ClusterConfig{
		Timeout:       20 * time.Second,
		StragglerUnit: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cluster.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := local.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, lb) {
		t.Fatal("faulted cluster trace differs from the in-process trace")
	}
	if cluster.DroppedAt[2] != 2 {
		t.Fatalf("trace lost the dropout schedule: DroppedAt = %v", cluster.DroppedAt)
	}
	// The dropped client can contribute only to rounds before its crash.
	if cluster.Participation[2] > 2 {
		t.Fatalf("dropped client counted in %d rounds, dropped at round 2", cluster.Participation[2])
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestClusterHonorsCancellation cancels mid-run and requires prompt unwind
// with no leaked goroutines or sockets.
func TestClusterHonorsCancellation(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	// A real 40ms-per-round straggler stall keeps the 50-round run alive for
	// seconds, guaranteeing the cancellation lands mid-run.
	sc := clusterScenario([]ClientFault{
		{Client: 0, Kind: FaultStraggler, DelayFactor: 2},
	})
	sc.Rounds = 50
	done := make(chan error, 1)
	go func() {
		_, err := RunWith(ctx, sc, RunConfig{Backend: BackendCluster, Cluster: ClusterConfig{
			Timeout:       20 * time.Second,
			StragglerUnit: 20 * time.Millisecond,
		}})
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled cluster returned %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cluster did not unwind after cancellation")
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

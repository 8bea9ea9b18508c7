package scenario

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/testutil"
)

// TestGroupSizeExecutionOnly pins RunConfig.GroupSize's contract: it is an
// execution knob, not a scenario knob — the trace a hierarchical run emits is
// byte-identical to the flat run's, at any group size, on either backend.
func TestGroupSizeExecutionOnly(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	sc := Scenario{
		Name:        "group-size-invariance",
		Description: "small fleet for the hierarchical execution-knob test",
		Setup:       experiment.Setup1,
		Clients:     7, TotalSamples: 280,
		Rounds: 5, LocalSteps: 2, BatchSize: 6,
		Seed: 91,
	}
	flat, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := flat.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []RunConfig{
		{Backend: BackendLocal, GroupSize: 2},
		{Backend: BackendLocal, GroupSize: 7},
		{Backend: BackendCluster, GroupSize: 3, Cluster: ClusterConfig{Timeout: 20 * time.Second}},
	} {
		trace, err := RunWith(context.Background(), sc, cfg)
		if err != nil {
			t.Fatalf("%v K=%d: %v", cfg.Backend, cfg.GroupSize, err)
		}
		got, err := trace.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%v K=%d trace differs from the flat run — GroupSize leaked into the arithmetic",
				cfg.Backend, cfg.GroupSize)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestFleetShardsScenario runs a synthesized fleet — more clients than data
// shards — through the whole scenario pipeline and checks the world stays one
// world: every backend and group size replays the identical trace, and the
// trace prices the full synthesized fleet.
func TestFleetShardsScenario(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	sc := Scenario{
		Name:        "fleet-shards",
		Description: "24 clients synthesized from 4 data shards",
		Setup:       experiment.Setup1,
		Clients:     24, FleetShards: 4, TotalSamples: 200,
		Rounds: 4, LocalSteps: 2, BatchSize: 6,
		Seed: 133,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	flat, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Clients != 24 || len(flat.Equilibrium.Q) != 24 {
		t.Fatalf("trace covers %d clients (q: %d), want the full 24-client fleet",
			flat.Clients, len(flat.Equilibrium.Q))
	}
	want, err := flat.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []RunConfig{
		{Backend: BackendLocal, GroupSize: 5},
		{Backend: BackendCluster, GroupSize: 6, Cluster: ClusterConfig{Timeout: 20 * time.Second}},
	} {
		trace, err := RunWith(context.Background(), sc, cfg)
		if err != nil {
			t.Fatalf("%v K=%d: %v", cfg.Backend, cfg.GroupSize, err)
		}
		got, err := trace.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%v K=%d diverged on the synthesized fleet", cfg.Backend, cfg.GroupSize)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestHierarchicalFlatProperty is the property-based form of the tentpole
// invariant: across 50 generated worlds — faults, churn, and adversaries
// included — the two-level group reduce is bit-for-bit identical to the flat
// fold at group sizes {1, 2, 7, fleet}, at GOMAXPROCS 1 and 4, and on both
// execution backends. The proc and backend axes rotate deterministically with
// the world index so every combination is exercised without running the full
// 50×4×2×2 cross product; a failure reproduces from the subtest name alone.
func TestHierarchicalFlatProperty(t *testing.T) {
	worlds := 50
	if testing.Short() {
		worlds = 8 // cluster legs are skipped below, too
	}
	ctx := context.Background()
	for i := 0; i < worlds; i++ {
		t.Run(fmt.Sprintf("world-%03d", i), func(t *testing.T) {
			sc := GenerateWith(genSeed(5000+i), GenOptions{MaxClients: 9, MaxRounds: 12})
			flat, err := RunWith(ctx, sc, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := flat.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			for j, k := range []int{1, 2, 7, sc.Clients} {
				cfg := RunConfig{GroupSize: k}
				if (i+j)%4 == 3 {
					if testing.Short() {
						continue
					}
					cfg.Backend = BackendCluster
					cfg.Cluster = ClusterConfig{Timeout: 30 * time.Second}
				}
				procs := 1
				if (i+j)%2 == 1 {
					procs = 4
				}
				prev := runtime.GOMAXPROCS(procs)
				trace, err := RunWith(ctx, sc, cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%v K=%d GOMAXPROCS=%d: %v", cfg.Backend, k, procs, err)
				}
				got, err := trace.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: %v K=%d GOMAXPROCS=%d diverged from the flat fold",
						sc.Name, cfg.Backend, k, procs)
				}
			}
		})
	}
}

// TestFleetShardsValidation rejects incoherent shard counts at declaration
// time.
func TestFleetShardsValidation(t *testing.T) {
	base := Scenario{
		Name: "x", Setup: experiment.Setup1,
		Clients: 6, Rounds: 2, LocalSteps: 1, BatchSize: 4, Seed: 1,
	}
	for _, tc := range []struct {
		shards int
		ok     bool
	}{{0, true}, {2, true}, {6, true}, {1, false}, {-2, false}, {7, false}} {
		sc := base
		sc.FleetShards = tc.shards
		if err := sc.Validate(); (err == nil) != tc.ok {
			t.Fatalf("FleetShards=%d: err=%v, want ok=%v", tc.shards, err, tc.ok)
		}
	}
}

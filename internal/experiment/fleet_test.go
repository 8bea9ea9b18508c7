package experiment

import (
	"context"
	"math"
	"testing"
)

// TestFleetShardsBuild pins the fleet-synthesis invariants: data and
// calibration stay at shard scale (shared by pointer, G replicated with the
// shard), while the economics — weights, costs, valuations, pricing — cover
// every synthesized client individually.
func TestFleetShardsBuild(t *testing.T) {
	opts := tinyOptions()
	opts.NumClients = 57 // deliberately not a multiple of the shard count
	opts.FleetShards = 6
	opts.Rounds = 4
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	fed := env.Fed
	if fed.NumClients() != 57 {
		t.Fatalf("fleet has %d clients, want 57", fed.NumClients())
	}
	distinct := map[any]bool{}
	for n := 0; n < fed.NumClients(); n++ {
		if fed.Clients[n] != fed.Clients[n%6] {
			t.Fatalf("client %d does not share shard %d by pointer", n, n%6)
		}
		if env.Cal.G[n] != env.Cal.G[n%6] {
			t.Fatalf("client %d has G=%v, shard %d has %v", n, env.Cal.G[n], n%6, env.Cal.G[n%6])
		}
		distinct[fed.Clients[n]] = true
	}
	if len(distinct) != 6 {
		t.Fatalf("fleet holds %d distinct shards, want 6", len(distinct))
	}
	var wsum float64
	for _, w := range fed.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("replicated weights sum to %v, want 1", wsum)
	}
	// The pooled eval sets are de-duplicated: one copy of each shard.
	total := 0
	for n := 0; n < 6; n++ {
		total += fed.Clients[n].Len()
	}
	if fed.Train.Len() != total {
		t.Fatalf("pooled train set has %d samples, want the %d of the 6 distinct shards", fed.Train.Len(), total)
	}
	// Economics are per-client: 57 costs, 57 prices.
	if env.Params.N() != 57 {
		t.Fatalf("game covers %d clients, want 57", env.Params.N())
	}
	if _, err := env.Equilibrium(); err != nil {
		t.Fatalf("pricing the synthesized fleet: %v", err)
	}
}

// TestFleetShardsValidate rejects incoherent shard counts.
func TestFleetShardsValidate(t *testing.T) {
	for _, tc := range []struct {
		shards int
		ok     bool
	}{{-1, false}, {1, false}, {7, false}, {0, true}, {2, true}, {6, true}} {
		opts := tinyOptions()
		opts.FleetShards = tc.shards
		if err := opts.validate(); (err == nil) != tc.ok {
			t.Fatalf("FleetShards=%d: err=%v, want ok=%v", tc.shards, err, tc.ok)
		}
	}
}

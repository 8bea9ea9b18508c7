package experiment

import (
	"context"
	"strings"
	"testing"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
)

// TestCalibrateRefusesSharedShards: calibration credits a step's ‖g‖² to the
// client whose shard it reads, so a federation whose clients share shards
// (ReplicateClients) is refused before any round runs. The shard-scale
// federation it was replicated from calibrates.
func TestCalibrateRefusesSharedShards(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := CalibrationConfig{LocalSteps: 2, BatchSize: 8, Schedule: engine.ExpDecay{Eta0: 0.1, Decay: 0.996}, Seed: 5}
	fleet, err := data.ReplicateClients(env.Fed, 2*env.Fed.NumClients())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(context.Background(), env.Model, fleet, cfg, 1); err == nil ||
		!strings.Contains(err.Error(), "share a shard") {
		t.Fatalf("Calibrate over replicated shards: error %v", err)
	}
	cal, err := Calibrate(context.Background(), env.Model, env.Fed, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.G) != env.Fed.NumClients() {
		t.Fatalf("%d G_n estimates for %d clients", len(cal.G), env.Fed.NumClients())
	}
}

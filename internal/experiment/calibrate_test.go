package experiment

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/tensor"
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

// evalCounter is a model that counts how often it is evaluated.
type evalCounter struct {
	model.Model
	evals atomic.Int64
}

func (m *evalCounter) Loss(w tensor.Vec, ds *data.Dataset) (float64, error) {
	m.evals.Add(1)
	return m.Model.Loss(w, ds)
}

func (m *evalCounter) Accuracy(w tensor.Vec, ds *data.Dataset) (float64, error) {
	m.evals.Add(1)
	return m.Model.Accuracy(w, ds)
}

// TestCalibrateEvaluatesNothing: Calibrate keeps only the gradient norms of
// its run, so the engine's end-of-run evaluation must not reach the model's
// Loss or Accuracy — a whole train-set and test-set pass per calibration —
// while the run still produces a G_n for every client.
func TestCalibrateEvaluatesNothing(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := CalibrationConfig{LocalSteps: 2, BatchSize: 8, Schedule: engine.ExpDecay{Eta0: 0.1, Decay: 0.996}, Seed: 5}
	m := &evalCounter{Model: env.Model}
	cal, err := Calibrate(context.Background(), m, env.Fed, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.evals.Load(); n != 0 {
		t.Fatalf("calibration evaluated the model %d times, want 0", n)
	}
	if len(cal.G) != env.Fed.NumClients() {
		t.Fatalf("%d G_n estimates for %d clients", len(cal.G), env.Fed.NumClients())
	}
}

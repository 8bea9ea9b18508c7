package fl

import (
	"context"
	"runtime"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// The localUpdate-level hot-path gates (zero allocations in steady state,
// BenchmarkLocalUpdate) live in internal/engine with the execution code;
// this file keeps the run-level guarantees.

// TestRunnerDeterministicAcrossWorkerCounts complements
// TestRunnerDeterministicAcrossParallelism: the pooled backend must produce a
// bit-identical model whether the pool has one worker or several.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) tensor.Vec {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fed := testFederation(t, 3, 5)
		m := testModel(t, fed)
		q := []float64{0.9, 0.6, 0.4, 0.8, 0.5}
		sampler, err := NewBernoulliSampler(q, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Rounds = 12
		cfg.LocalSteps = 4
		res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), true)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalModel
	}
	one := run(1)
	four := run(4)
	for j := range one {
		if one[j] != four[j] {
			t.Fatalf("param %d differs across worker counts: %v vs %v", j, one[j], four[j])
		}
	}
}

// dupSampler returns the same client twice in a round — illegal, because a
// client's RNG, scratch, and delta buffer are single-owner within a round.
type dupSampler struct{ n int }

func (d dupSampler) Sample(int) []int { return []int{0, 1, 0} }
func (d dupSampler) NumClients() int  { return d.n }

// TestRunnerRejectsDuplicateParticipants pins the guard that protects the
// reused per-client buffers from samplers that draw with replacement.
func TestRunnerRejectsDuplicateParticipants(t *testing.T) {
	fed := testFederation(t, 30, 3)
	m := testModel(t, fed)
	cfg := DefaultConfig()
	cfg.Rounds = 2
	spec := specOf(m, fed, cfg, dupSampler{n: 3}, engine.UnbiasedAggregator{})
	if _, err := runLocal(context.Background(), spec, false); err == nil {
		t.Fatal("expected duplicate-participant error")
	}
}
